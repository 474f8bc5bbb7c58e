import json
import os
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from multiswap import builder, cli, sim
from multiswap.cli import main
from multiswap.fileio import save_states
from multiswap.states import StateEnsemble

from conftest import run_python


@pytest.fixture()
def states_file(tmp_path, d0):
    path = tmp_path / "states.json"
    save_states(path, d0)
    return str(path)


@pytest.fixture()
def five_states_file(tmp_path, d0):
    path = tmp_path / "five.json"
    save_states(path, StateEnsemble(d0.amplitudes[:5]))
    return str(path)


def test_build_summary(states_file, capsys):
    assert main(["build", states_file]) == 0
    out = capsys.readouterr().out
    assert "8 inputs, 4 ancillas, 8 CSWAPs (+4 final tests)" in out


def test_build_padding_note(five_states_file, capsys):
    assert main(["build", five_states_file]) == 0
    out = capsys.readouterr().out
    assert "padding to 8 with 3 |0> states" in out


def test_build_writes_qasm(states_file, tmp_path, capsys):
    qasm = tmp_path / "circuit.qasm"
    assert main(["build", states_file, "--qasm", str(qasm)]) == 0
    assert qasm.read_text().startswith("OPENQASM 2.0;")


def test_build_san_scheme(states_file, capsys):
    assert main(["build", states_file, "--scheme", "san"]) == 0
    out = capsys.readouterr().out
    assert "8 inputs, 6 ancillas, 9 CSWAPs (+1 final tests)" in out


def test_estimate_outputs_and_determinism(states_file, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["estimate", states_file, "--shots", "2048", "--seed", "5"]
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in ("estimates.csv", "scatter.csv", "counts.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "estimates.csv").read_text().splitlines()
    assert header[0] == "pair_i,pair_j,exact,estimate,samples,stderr"
    assert len(header) == 29


def test_estimate_rejects_zero_shots(states_file, capsys):
    assert main(["estimate", states_file, "--shots", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_estimate_statevector_over_cap_names_oracle(tmp_path, capsys):
    # 64 single-qubit states cannot be densely simulated
    rng_states = [[1.0, 0.0]] * 63 + [[0.0, 1.0]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"width": 1, "states": rng_states}))
    code = main(
        ["estimate", str(path), "--engine", "statevector", "--shots", "10"]
    )
    assert code == 2
    assert "oracle" in capsys.readouterr().err


def test_estimate_oracle_large_ensemble(tmp_path, capsys):
    rng = __import__("numpy").random.default_rng(1)
    from conftest import random_ensemble

    path = tmp_path / "big.json"
    save_states(path, random_ensemble(rng, 64))
    out = tmp_path / "out"
    code = main(
        ["estimate", str(path), "--engine", "oracle", "--shots", "4000",
         "--seed", "2", "--out-dir", str(out)]
    )
    assert code == 0
    rows = (out / "estimates.csv").read_text().splitlines()
    assert len(rows) == 1 + 2016


def test_replay_round_trips_estimates(states_file, tmp_path):
    out = tmp_path / "run"
    assert main(
        ["estimate", states_file, "--shots", "2048", "--seed", "5",
         "--out-dir", str(out)]
    ) == 0
    replay_out = tmp_path / "replayed"
    assert main(
        ["replay", str(out / "counts.txt"), states_file,
         "--out-dir", str(replay_out)]
    ) == 0
    est_rows = (out / "estimates.csv").read_text().splitlines()[1:]
    rep_rows = (replay_out / "replay.csv").read_text().splitlines()[1:]
    for est, rep in zip(est_rows, rep_rows):
        assert rep.startswith(est)


def test_replay_bundled_worked_example(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(
        ["replay", "bundled", "bundled", "--reference", "bundled",
         "--tolerance", "0.001", "--out-dir", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "total shots: 8192" in printed
    rows = (out / "replay.csv").read_text().splitlines()
    row67 = [r for r in rows if r.startswith("6,7,")][0]
    assert ",0.1972111554,1004," in row67


def test_replay_layout_mismatch_is_data_error(states_file, tmp_path, capsys):
    bad = tmp_path / "bad_counts.txt"
    bad.write_text("layout: s1 s2 r1\nscheme: new\n000 4\n")
    assert main(["replay", str(bad), states_file]) == 3
    err = capsys.readouterr().err
    assert "expected" in err and "s1 s2 s3 s4 r1 r2 r3 r4" in err


def test_replay_unknown_bitstring_length(states_file, tmp_path):
    bad = tmp_path / "bad_counts.txt"
    bad.write_text("layout: s1 s2 s3 s4 r1 r2 r3 r4\nscheme: new\n00 4\n")
    assert main(["replay", str(bad), states_file]) == 3


def test_analyze_emits_tables(tmp_path, capsys):
    out = tmp_path / "analysis"
    assert main(["analyze", "--max-k", "5", "--out-dir", str(out)]) == 0
    resources = (out / "resources.csv").read_text().splitlines()
    assert len(resources) == 1 + 4  # n = 4, 8, 16, 32
    assert resources[0].startswith("n,k,new_cswap")
    assert all(row.endswith("true") for row in resources[1:])
    precision = (out / "precision.csv").read_text().splitlines()
    assert precision[0] == "n,shots,baseline_per_pair,multiplexed_per_pair,ratio"
    assert len(precision) == 5


def test_analyze_minimum_size(tmp_path):
    out = tmp_path / "small"
    assert main(["analyze", "--max-k", "2", "--out-dir", str(out)]) == 0
    assert len((out / "resources.csv").read_text().splitlines()) == 2


def test_analyze_rejects_bad_k(capsys):
    assert main(["analyze", "--max-k", "1"]) == 2


def test_analyze_rejects_zero_shots(tmp_path, capsys):
    assert main(["analyze", "--shots", "0", "--out-dir", str(tmp_path / "out")]) == 2
    assert "shots must be in 1.." in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_analyze_measures_only_up_to_the_measure_limit(tmp_path, capsys):
    # n = 2048 is past the 1024 registers whose circuits are built and counted
    out = tmp_path / "analysis"
    assert main(["analyze", "--max-k", "11", "--out-dir", str(out)]) == 0
    header, *rows = (out / "resources.csv").read_text().splitlines()
    measured = [i for i, name in enumerate(header.split(",")) if name.endswith("_measured")]
    cells = {row.split(",")[0]: [row.split(",")[i] for i in measured] for row in rows}
    assert cells["1024"] == ["4608", "18", "1533", "27"]
    assert cells["2048"] == ["", "", "", ""]


def test_analyze_refuses_k_past_the_float_range(tmp_path, capsys):
    # 2**512 * (2**512 - 1) is past the largest float, so precision() overflowed
    out = tmp_path / "analysis"
    assert main(["analyze", "--max-k", "512", "--out-dir", str(out)]) == 2
    assert "max_k must be in 2..511, got 512" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_refuses_shots_past_the_float_range(tmp_path, capsys):
    # the precision model doubles shots as a float: 2.0 * 10**400 overflowed
    largest = int(sys.float_info.max / 2)
    out = tmp_path / "analysis"
    assert main(["analyze", "--max-k", "2", "--shots", str(largest), "--out-dir", str(out)]) == 0
    assert "inf" not in (out / "precision.csv").read_text()
    for i, shots in enumerate((largest + 1, 10**400)):
        out = tmp_path / f"refused{i}"
        assert main(["analyze", "--max-k", "2", "--shots", str(shots), "--out-dir", str(out)]) == 2
        assert "shots must be in 1..8.98847e+307" in capsys.readouterr().err
        assert not out.exists()


def test_export_table_json(tmp_path):
    path = tmp_path / "table.json"
    assert main(["export-table", "--n", "8", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["ancilla_count"] == 4
    assert len(doc["rows"]) == 16
    assert doc["rows"]["0000"]["permutation"] == [1, 2, 3, 4, 5, 6, 7, 8]
    # the audit export records where the derived table departs from the
    # bundled reference table (its duplicated 0011 row)
    assert [m["outcome"] for m in doc["reference_mismatches"]] == ["0011"]


def test_export_table_prints_its_json_without_an_output_path(capsys):
    assert main(["export-table", "--n", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"]["01"]["permutation"] == [1, 3, 2, 4]
    assert doc["reference_mismatches"] == []


def test_export_table_san_mismatch_audit(tmp_path):
    path = tmp_path / "san.json"
    assert main(["export-table", "--n", "4", "--scheme", "san", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert [m["outcome"] for m in doc["reference_mismatches"]] == ["010"]


def test_export_table_rejects_bad_n(capsys):
    assert main(["export-table", "--n", "6"]) == 2


@pytest.mark.parametrize("argv, size", [
    (["--n", "1024"], "2^18 outcomes x 1024 registers"),
    (["--n", "128", "--scheme", "san"], "2^18 outcomes x 128 registers"),
    (["--n", str(2**20)], "2^38 outcomes x 1048576 registers"),
    (["--n", str(2**40)], "2^78 outcomes x 1099511627776 registers"),
])
def test_export_table_refuses_tables_over_the_size_limit(argv, size, capsys, monkeypatch):
    # the table's size follows from scheme and n, so no plan is built first
    def no_plan(*args, **kwargs):
        raise AssertionError("layout_plan ran for a refused table")

    monkeypatch.setattr(cli, "layout_plan", no_plan)
    monkeypatch.setattr(builder, "layout_plan", no_plan)
    assert main(["export-table", *argv]) == 2
    assert size in capsys.readouterr().err


def test_missing_states_file_is_data_error(capsys):
    assert main(["build", "/nonexistent/states.json"]) == 3


def test_bad_states_content_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"width": 1, "states": [[0.5, 0.5], [1, 0]]}))
    assert main(["build", str(path)]) == 3
    assert main(["build", str(path), "--normalize"]) == 0


#: states files that once ran as width 1 with amplitudes 1 and 0, that
#: raised OverflowError from complex() or RecursionError from json.loads, or
#: whose squared amplitudes overflow, which printed numpy's RuntimeWarning
@pytest.mark.parametrize("text, message", [
    pytest.param(
        '{"width": true, "states": [[true, false], [0.6, 0.8], [false, true], [0, 1]]}',
        "width must be a positive integer, got True", id="booleans",
    ),
    pytest.param(
        '{"width": 1, "states": [[1, 0], [0.6, 0.8], [false, true]]}',
        "state 3: amplitude must be a real number", id="bool_amplitude",
    ),
    pytest.param(
        '{"width": 1, "states": [[[1, false], 0], [0.6, 0.8]]}',
        "state 1: amplitude must be a real number", id="bool_part",
    ),
    pytest.param(
        '{"width": 1, "states": [[1%s, 0], [0.6, 0.8]]}' % ("0" * 400),
        "state 1: amplitude 1000", id="huge_int",
    ),
    pytest.param(
        "[" * 100_000 + "]" * 100_000,
        "states.json: not valid JSON (maximum recursion depth", id="deep_nesting",
    ),
    pytest.param(
        '{"width": 1, "states": [[1e200, 1e200], [1, 0]]}',
        "state 1: amplitudes and their norm must be finite", id="overflowing_norm",
    ),
    pytest.param('{"states": [[1, 0], [0, 1]]}', "needs 'width' and 'states'", id="no_width"),
    pytest.param('{"width": 1}', "needs 'width' and 'states'", id="no_states"),
    pytest.param('{"width": 1, "states": [[1, 0]]}', "at least two states", id="one_state"),
])
def test_bad_states_values_are_data_errors(text, message, tmp_path, capsys):
    path = tmp_path / "states.json"
    path.write_text(text)
    assert main(["estimate", str(path), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err


def test_zero_vector_is_a_data_error_under_normalize(tmp_path, capsys):
    path = tmp_path / "states.json"
    path.write_text('{"width": 1, "states": [[1, 0], [0, 0]]}')
    assert main(["build", str(path), "--normalize"]) == 3
    assert "state 2: unnormalizable: zero vector" in capsys.readouterr().err


def test_replay_ignores_reference_labels_beyond_int64(tmp_path, capsys):
    reference = tmp_path / "reference.csv"
    reference.write_text("pair_i,pair_j,estimate\n99999999999999999999999,3,0.5\n1,2,0.5\n")
    assert main(["replay", "bundled", "bundled", "--reference", str(reference)]) == 0
    assert "(1,2) exact=" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_estimate_rejects_out_of_range_seed(states_file, seed, capsys):
    assert main(["estimate", states_file, "--seed", seed]) == 2
    assert "seed must satisfy 0 <= seed < 2**64" in capsys.readouterr().err


def test_san_destructive_estimate_then_replay(states_file, tmp_path):
    out = tmp_path / "run"
    assert main(
        ["estimate", states_file, "--scheme", "san", "--final", "destructive",
         "--engine", "statevector", "--shots", "4096", "--out-dir", str(out)]
    ) == 0
    replay_out = tmp_path / "replayed"
    assert main(
        ["replay", str(out / "counts.txt"), states_file, "--out-dir", str(replay_out)]
    ) == 0
    est_rows = (out / "estimates.csv").read_text().splitlines()[1:]
    rep_rows = (replay_out / "replay.csv").read_text().splitlines()[1:]
    assert len(est_rows) == len(rep_rows) == 28
    for est, rep in zip(est_rows, rep_rows):
        assert rep.startswith(est)


def test_estimate_out_dir_that_is_a_file_is_data_error(states_file, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "sub"):
        assert main(["estimate", states_file, "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(blocker) in err


def test_estimate_checks_out_dir_before_simulating(states_file, tmp_path, monkeypatch):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    ran = []
    monkeypatch.setattr("multiswap.cli.estimate_all_overlaps", lambda *a, **k: ran.append(1))
    assert main(["estimate", states_file, "--out-dir", str(blocker)]) == 3
    assert ran == []


_ORACLE_RULE = "the oracle draws standard-variant verdicts only, and the plan ends in 'destructive'"


@pytest.mark.parametrize("cap, argv, message", [
    pytest.param(None, ["--shots", "0"], "shots must be >= 1, got 0", id="zero_shots"),
    pytest.param(None, ["--seed", "-1"], "seed must satisfy 0 <= seed < 2**64", id="negative_seed"),
    pytest.param(None, ["--seed", str(2**64)], "seed must satisfy 0 <= seed < 2**64",
                 id="seed_2_64"),
    pytest.param(None, ["--engine", "oracle", "--final", "destructive"], _ORACLE_RULE,
                 id="oracle_destructive"),
    pytest.param(10, ["--engine", "statevector"], "above the dense cap of 10 qubits",
                 id="statevector_over_cap"),
    pytest.param(10, ["--final", "destructive"], _ORACLE_RULE, id="auto_destructive_over_cap"),
])
def test_a_refused_estimate_creates_no_out_dir(cap, argv, message, tmp_path, capsys,
                                               monkeypatch):
    if cap is not None:
        monkeypatch.setattr(sim, "MAX_QUBITS", cap)
    out = tmp_path / "fresh" / "run"
    assert main(["estimate", "bundled", *argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "fresh").exists()


def test_a_config_error_comes_before_an_unusable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["estimate", "bundled", "--shots", "0", "--out-dir", str(blocker)]) == 2
    assert capsys.readouterr().err == "config error: shots must be >= 1, got 0\n"


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_replay_rejects_bad_tolerance(tolerance, capsys):
    assert main(["replay", "bundled", "bundled", "--tolerance", tolerance]) == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err


def test_counts_header_names_the_variant_the_counts_hold(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(
        ["estimate", "bundled", "--engine", "oracle", "--final", "standard",
         "--shots", "256", "--out-dir", str(out)]
    ) == 0
    lines = (out / "counts.txt").read_text().splitlines()
    assert lines[0] == "# engine=oracle shots=256 seed=0 final=standard"
    assert lines[1] == "layout: s1 s2 s3 s4 r1 r2 r3 r4"
    replay_out = tmp_path / "replayed"
    assert main(
        ["replay", str(out / "counts.txt"), "bundled", "--out-dir", str(replay_out)]
    ) == 0
    est_rows = (out / "estimates.csv").read_text().splitlines()[1:]
    rep_rows = (replay_out / "replay.csv").read_text().splitlines()[1:]
    assert len(est_rows) == len(rep_rows) == 28
    for est, rep in zip(est_rows, rep_rows):
        assert rep.startswith(est)


def test_oracle_refuses_the_destructive_variant_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(
        ["estimate", "bundled", "--engine", "oracle", "--final", "destructive",
         "--out-dir", str(out)]
    ) == 2
    err = capsys.readouterr().err
    assert "the oracle draws standard-variant verdicts only" in err
    assert "run the standard variant, or the statevector engine" in err
    assert not (out / "counts.txt").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_replay_rejects_non_finite_reference_values(value, tmp_path, capsys):
    path = tmp_path / "reference.csv"
    path.write_text(f"pair_i,pair_j,estimate\n1,2,0.4\n1,3,{value}\n")
    assert main(["replay", "bundled", "bundled", "--reference", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "non-finite" in err and f"'{value}'" in err


def test_replay_header_only_counts_leave_every_pair_unsampled(tmp_path, capsys):
    empty = tmp_path / "counts.txt"
    empty.write_text("layout: s1 s2 s3 s4 r1 r2 r3 r4\nscheme: new\n")
    assert main(["replay", str(empty), "bundled"]) == 0
    out = capsys.readouterr().out
    assert "total shots: 0\npairs: 28, flagged: 28\n" in out
    assert out.count("flag=unsampled") == 28


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 13 ms to import; np.unique with an axis pulls it in
    out = str(tmp_path)
    script = textwrap.dedent(f"""
        import sys
        from multiswap.cli import main
        for argv in (
            ["build", "bundled"],
            ["estimate", "bundled", "--engine", "statevector", "--out-dir", {out!r}],
            ["estimate", "bundled", "--engine", "oracle", "--out-dir", {out!r}],
            ["replay", "bundled", "bundled"],
            ["replay", "bundled", "bundled", "--reference", "bundled"],
            ["analyze", "--max-k", "3", "--out-dir", {out!r}],
            ["export-table", "--n", "8", "-o", {out!r} + "/table.json"],
        ):
            assert main(argv) == 0, argv
            assert "numpy.ma" not in sys.modules, argv
    """)
    proc = run_python("-c", script, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("step", ["import", "replay"])
def test_start_up_and_replay_do_not_import_numpy_random(step):
    # numpy.random loads on first attribute access; only drawing shots needs
    # it, so neither start-up nor a replay of the bundled counts file pays
    # for its import
    script = "import sys\nfrom multiswap.cli import main\n"
    if step == "replay":
        script += "assert main(['replay', 'bundled', 'bundled']) == 0\n"
    script += "assert 'numpy.random' not in sys.modules, sorted(sys.modules)\n"
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_import_multiswap_loads_no_submodule_and_no_numpy():
    script = textwrap.dedent("""
        import sys
        import multiswap
        loaded = [m for m in sys.modules if m == "numpy" or m.startswith("multiswap.")]
        assert not loaded, loaded
    """)
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_command_freezes_its_start_up_objects_and_keeps_collecting():
    # frozen start-up objects are skipped by later collections and at exit
    script = textwrap.dedent("""
        import gc
        import multiswap.cli
        assert gc.isenabled()
        assert gc.get_freeze_count() > 0, gc.get_freeze_count()
    """)
    proc = run_python("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _without_blas_threads() -> dict:
    """This environment minus OPENBLAS_NUM_THREADS, which an in-process
    ``import multiswap.cli`` has set here."""
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # an older numpy has no mode="dicts"
        return False
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not _openblas() or not Path("/proc/self/status").exists(),
                    reason="needs numpy on OpenBLAS and /proc/self/status")
def test_command_starts_numpy_without_a_blas_pool():
    # an idle OpenBLAS worker thread cost every run 0.1-0.15 s of CPU
    script = textwrap.dedent("""
        import os
        import multiswap.cli
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("Threads:")))
        print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    """)
    proc = run_python("-c", script, env=_without_blas_threads(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_caller_blas_threads_win_and_leave_outputs_unchanged(tmp_path):
    script = textwrap.dedent("""
        import os
        import sys
        from multiswap.cli import main
        print(os.environ["OPENBLAS_NUM_THREADS"])
        sys.exit(main(sys.argv[1:]))
    """)
    runs = {}
    for name, env in (("default", _without_blas_threads()),
                      ("2", dict(os.environ, OPENBLAS_NUM_THREADS="2"))):
        out = tmp_path / name
        proc = run_python("-c", script, "estimate", "bundled", "--engine", "oracle",
                          "--out-dir", str(out), env=env)
        assert proc.returncode == 0, proc.stderr
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs[name] = proc.stdout.split()[0], files
    assert runs["default"][0] == "1"
    assert runs["2"][0] == "2"
    assert runs["2"][1] == runs["default"][1]


def test_replay_unknown_scheme_is_data_error(tmp_path, capsys):
    bad = tmp_path / "counts.txt"
    bad.write_text("layout: s1 s2 s3 s4 r1 r2 r3 r4\nscheme: bogus\n00000000 4\n")
    assert main(["replay", str(bad), "bundled"]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("digits", [19, 5000])
def test_replay_count_beyond_64_bits_is_data_error(digits, tmp_path, capsys):
    # 5000 digits is past Python's int-string limit as well as int64
    bad = tmp_path / "counts.txt"
    bad.write_text(f"layout: s1 s2 s3 s4 r1 r2 r3 r4\nscheme: new\n00000000 {'9' * digits}\n")
    assert main(["replay", str(bad), "bundled"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{bad}: a count exceeds the 64-bit range" in err


@pytest.mark.parametrize("count", ["²", "١٢"], ids=["superscript", "arabic_indic"])
def test_replay_non_ascii_count_is_data_error(count, tmp_path, capsys):
    bad = tmp_path / "counts.txt"
    bad.write_text(
        f"layout: s1 s2 s3 s4 r1 r2 r3 r4\nscheme: new\n00000000 4\n00000000 {count}\n",
        encoding="utf-8",
    )
    assert main(["replay", str(bad), "bundled"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"{bad}:4: expected '<bitstring> <count>'" in err


def test_replay_reads_reversed_reference_pairs(tmp_path, capsys):
    reversed_ref, ordered_ref = tmp_path / "reversed.csv", tmp_path / "ordered.csv"
    reversed_ref.write_text("pair_i,pair_j,estimate\n2,1,0.9\n")
    ordered_ref.write_text("pair_i,pair_j,estimate\n1,2,0.9\n")
    for path in (reversed_ref, ordered_ref):
        out = tmp_path / path.stem
        assert main(["replay", "bundled", "bundled", "--reference", str(path),
                     "--out-dir", str(out)]) == 0
    assert (tmp_path / "reversed" / "replay.csv").read_bytes() == (
        tmp_path / "ordered" / "replay.csv"
    ).read_bytes()
    row = (tmp_path / "reversed" / "replay.csv").read_text().splitlines()[1]
    assert row.startswith("1,2,") and row.endswith(",0.9,0.5040856031,deviates")


@pytest.mark.parametrize("second", ["1,2", "2,1"], ids=["same_order", "reversed"])
def test_replay_rejects_a_reference_pair_listed_twice(second, tmp_path, capsys):
    path = tmp_path / "reference.csv"
    path.write_text(f"pair_i,pair_j,estimate\n1,2,0.4\n{second},0.4\n")
    assert main(["replay", "bundled", "bundled", "--reference", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "pair (1, 2) listed twice" in err


def test_replay_with_report_file_prints_only_the_first_flagged_pairs(tmp_path, capsys,
                                                                     monkeypatch):
    # 32 random states and 64 shots leave most of the 496 pairs unsampled or
    # off their exact value, so far more than 20 are flagged
    rng = np.random.default_rng(32)
    v = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
    states = tmp_path / "states.json"
    save_states(states, StateEnsemble([row / np.linalg.norm(row) for row in v]))
    run = tmp_path / "run"
    assert main(["estimate", str(states), "--engine", "oracle", "--shots", "64",
                 "--out-dir", str(run)]) == 0
    argv = ["replay", str(run / "counts.txt"), str(states)]
    capsys.readouterr()
    assert main(argv) == 0
    full = capsys.readouterr().out.splitlines()
    report = tmp_path / "rep" / "replay.csv"
    assert main(argv + ["--out-dir", str(report.parent)]) == 0
    short = capsys.readouterr().out.splitlines()

    flagged = int(full[1].rsplit(" ", 1)[1])
    assert flagged > 20
    pair_lines = [line for line in full if line.startswith("  (")]
    assert len(pair_lines) == flagged
    assert short == full[:2] + pair_lines[:20] + [
        f"  ... and {flagged - 20} more in {report}",
        f"report written to {report}",
    ]
    rows = [r.split(",") for r in report.read_text().splitlines()[1:]]
    assert sum(r[-1] != "ok" for r in rows) == flagged
    # one pair over the limit is named as one more; none over, no such line
    for limit, tail in ((flagged - 1, [f"  ... and 1 more in {report}"]), (flagged, [])):
        monkeypatch.setattr(cli, "_REPLAY_SHOWN", limit)
        assert main(argv + ["--out-dir", str(report.parent)]) == 0
        assert capsys.readouterr().out.splitlines() == full[:2 + limit] + tail + [
            f"report written to {report}"]


@pytest.mark.parametrize("engine", ["oracle", "statevector"])
def test_estimate_too_many_shots_for_memory_is_config_error(engine, tmp_path, capsys):
    # 10**15 shots need petabytes, beyond any address space, so the first
    # shot-sized array is refused at once and nothing is allocated
    argv = ["estimate", "bundled", "--engine", engine, "--shots", str(10**15)]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"--shots {10**15}" in err and "PiB" in err


def test_estimate_memory_error_names_the_run_not_a_cause(tmp_path, capsys, monkeypatch):
    # the overlap matrix, not the shots, runs out here; the message names the
    # run and numpy's text and blames neither
    refusal = "Unable to allocate 2.00 GiB for an array with shape (16384, 16384)"

    def overlaps(self):
        raise MemoryError(refusal)

    monkeypatch.setattr(StateEnsemble, "overlaps", property(overlaps))
    argv = ["estimate", "bundled", "--shots", "100", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: out of memory in a run of 8 registers of width 1, "
        f"--shots 100, --engine auto: {refusal}\n"
    )


@pytest.mark.parametrize("command, where, name", [
    ("replay", cli, "replay"),
    ("build", cli, "assemble"),
    ("analyze", cli.analytics, "resource_report"),
    ("export-table", cli, "decode_all"),
], ids=["replay", "build", "analyze", "export-table"])
def test_running_out_of_memory_is_a_config_error(command, where, name, tmp_path, capsys,
                                                 monkeypatch):
    refusal = "Unable to allocate 128. MiB for an array with shape (4096, 4096)"

    def allocate(*args, **kwargs):
        raise MemoryError(refusal)

    monkeypatch.setattr(where, name, allocate)
    argv = {
        "replay": ["replay", "bundled", "bundled"],
        "build": ["build", "bundled"],
        "analyze": ["analyze", "--out-dir", str(tmp_path)],
        "export-table": ["export-table", "--n", "8"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: out of memory in {command}: {refusal}\n"


def test_replay_counts_totalling_past_int64_is_data_error(tmp_path, capsys, d0):
    # the total once wrapped to -446744073709551611 shots, every pair "ok"
    states = tmp_path / "states.json"
    save_states(states, StateEnsemble(d0.amplitudes[:4]))
    counts = tmp_path / "counts.txt"
    counts.write_text("layout: s1 s2 r1 r2\nscheme: new\n"
                      "0000 9000000000000000000\n0000 9000000000000000000\n0100 5\n")
    assert main(["replay", str(counts), str(states)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err == (
        f"data error: {counts}: counts total more than 9223372036854775807 shots, "
        "past the int64 range\n")


def test_replay_reference_field_over_the_csv_limit_is_data_error(tmp_path, capsys):
    # the csv module refuses a field over 128 KiB with its own csv.Error
    path = tmp_path / "reference.csv"
    path.write_text("pair_i,pair_j,estimate\n1,2," + "1" * (1 << 18) + "\n")
    assert main(["replay", "bundled", "bundled", "--reference", str(path)]) == 3
    assert "field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["states", "counts", "reference"])
def test_undecodable_input_file_is_data_error(kind, tmp_path, capsys):
    # one byte 0xFF is no UTF-8 text; UnicodeDecodeError is a ValueError, so
    # it once surfaced as a configuration error
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff")
    argv = {
        "states": ["estimate", str(bad), "--out-dir", str(tmp_path)],
        "counts": ["replay", str(bad), "bundled"],
        "reference": ["replay", "bundled", "bundled", "--reference", str(bad)],
    }[kind]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"data error: {bad}: not readable as text (")
