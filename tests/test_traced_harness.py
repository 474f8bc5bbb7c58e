"""Smoke test of the benchmark's traced run against the current package.

``benchmarks/traced.py`` wraps every public ``multiswap`` function and
imports a few names directly, so removing or renaming one of those breaks the
benchmark; this test runs it as the benchmark does, in a fresh interpreter.
"""

import json
import runpy
from pathlib import Path

import numpy as np

from multiswap.builder import assemble, layout_plan
from multiswap.cli import main
from multiswap.fileio import save_states
from multiswap.states import StateEnsemble

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "benchmarks" / "traced.py"


def test_traced_statevector_estimate_writes_spans(tmp_path):
    trace = tmp_path / "trace.json"
    proc = run_python(
        str(TRACED), str(trace), "estimate", "bundled",
        "--shots", "64", "--engine", "statevector", "--out-dir", str(tmp_path / "out"),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    assert doc["exit_code"] == 0
    names = [span[0] for span in doc["spans"]]
    assert {
        "cli.main",
        "estimation.estimate_all_overlaps",
        "sim.measured_distribution",
        "estimation.tally",
        "fileio.write_csv",
    } <= set(names)
    assert all(start <= end for _, start, end, _ in doc["spans"])
    # the estimate path never calls run_statevector, so the run itself takes
    # no gate probes; the probes are exercised directly below
    assert doc["gate_probes"] == {}
    # the statevector run builds exactly one gate list, from the plan it holds
    assert names.count("builder.assemble") == 1


def test_traced_sharded_oracle_estimate_matches_the_untraced_run(tmp_path, capsys):
    # 64 states and 70000 shots: the oracle sampler splits its shots across
    # the CPUs, under at most 2**10 distinct ancilla outcomes, one outcome block
    rng = np.random.default_rng(64)
    amplitudes = rng.normal(size=(64, 2)) + 1j * rng.normal(size=(64, 2))
    amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
    states = tmp_path / "states.json"
    save_states(states, StateEnsemble(amplitudes))
    args = ["estimate", str(states), "--engine", "oracle", "--shots", "70000", "--seed", "3"]
    assert main(args + ["--out-dir", str(tmp_path / "plain")]) == 0
    trace = tmp_path / "trace.json"
    proc = run_python(str(TRACED), str(trace), *args, "--out-dir", str(tmp_path / "traced"),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("counts.txt", "estimates.csv", "scatter.csv"):
        traced = (tmp_path / "traced" / name).read_bytes()
        assert traced == (tmp_path / "plain" / name).read_bytes(), name
    doc = json.loads(trace.read_text())
    assert doc["exit_code"] == 0
    assert all(start <= end for _, start, end, _ in doc["spans"])
    spans = doc["spans"]
    names = [span[0] for span in spans]
    # the sampler counts the verdicts it draws, so the oracle run has no tally
    assert "estimation.oracle_sample" in names
    assert "estimation.tally" not in names

    def callers(span):
        while span[3] is not None:
            span = spans[span[3]]
            yield span[0]

    # the sampler builds the run's one pair table before its shards start,
    # one decode per outcome block
    assert names.count("builder.decode") == 1
    table = [span for span in spans
             if span[0] in ("builder.decode", "circuits.index_bits", "builder.slot_pairs")]
    assert {span[0] for span in table} == {
        "builder.decode", "circuits.index_bits", "builder.slot_pairs"}
    assert all("estimation.oracle_sample" in callers(span) for span in table)

    # a traced replay of the same counts still tallies them, on its own span
    trace = tmp_path / "replay.json"
    proc = run_python(str(TRACED), str(trace), "replay", str(tmp_path / "plain" / "counts.txt"),
                      str(states), "--out-dir", str(tmp_path / "replayed"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(trace.read_text())["spans"]
    tallies = [span for span in spans if span[0] == "estimation.tally"]
    assert len(tallies) == 1
    assert "estimation.replay" in callers(tallies[0])


def test_traced_gate_probes_time_each_gate_kind():
    # loading the script instruments nothing and writes no bytecode cache
    traced = runpy.run_path(str(TRACED), run_name="traced")
    probes = traced["gate_probes"](assemble(layout_plan("new", 4, 1, "standard")))
    assert sorted(probes) == ["CSWAP", "H"]
    assert all(seconds >= 0 for seconds in probes.values())
