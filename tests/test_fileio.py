import json

import numpy as np
import pytest

from multiswap import fileio
from multiswap.builder import decode_all, layout_plan
from multiswap.estimation import CountsTable
from multiswap.fileio import (
    DataError,
    load_states,
    parse_states,
    read_counts,
    read_reference_estimates,
    save_states,
    table_to_dict,
    write_counts,
    write_csv,
)
from multiswap.fixtures import load_ensemble, reference_table_rows


def test_states_round_trip(tmp_path, d0):
    path = tmp_path / "states.json"
    save_states(path, d0, label="round-trip")
    loaded = load_states(path)
    assert loaded.amplitudes.shape == d0.amplitudes.shape
    assert np.allclose(loaded.amplitudes, d0.amplitudes, rtol=0, atol=1e-12)


def test_states_plain_reals_mean_zero_imaginary(tmp_path):
    path = tmp_path / "states.json"
    path.write_text(json.dumps({"width": 1, "states": [[1, 0], [[0, 0], [0, 1]]]}))
    loaded = load_states(path)
    assert np.allclose(loaded.state(1).amplitudes, [1, 0])
    assert np.allclose(loaded.state(2).amplitudes, [0, 1j])


def test_states_file_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DataError, match="not valid JSON"):
        load_states(path)
    path.write_text(json.dumps({"width": 1, "states": [[1, 0, 0], [0, 1]]}))
    with pytest.raises(DataError, match="state 1"):
        load_states(path)
    path.write_text(json.dumps({"width": 1, "states": [[0.5, 0.5], [0, 1]]}))
    with pytest.raises(DataError, match="state 1"):
        load_states(path)
    loaded = load_states(path, renormalize=True)
    assert np.allclose(loaded.state(1).amplitudes, [np.sqrt(0.5), np.sqrt(0.5)])


def test_parse_states_rejects_badly_scaled_input():
    with pytest.raises(DataError, match="state 1: input norm 1.063015 deviates"):
        parse_states({"width": 1, "states": [[0.7, 0.8], [1, 0]]})


def test_counts_round_trip(tmp_path):
    table = CountsTable(("s1", "s2", "r1"), "new", [[1, 0, 1], [0, 0, 0]], [2, 5])
    path = tmp_path / "counts.txt"
    write_counts(path, table, comments=("a comment",))
    assert path.read_text() == (
        "# a comment\nlayout: s1 s2 r1\nscheme: new\n000 5\n101 2\n"
    )
    loaded = read_counts(path)
    assert (loaded.labels, loaded.scheme) == (table.labels, table.scheme)
    assert np.array_equal(loaded.bits, table.bits)
    assert np.array_equal(loaded.counts, table.counts)


@pytest.mark.parametrize("high", [1, 2, 10, 100, 10**18])
def test_counts_lines_match_plain_formatting(high, tmp_path, monkeypatch):
    # blocks of 7 rows: some hold counts of one digit count only (written
    # without the leading-zero mask), others mix them
    rng = np.random.default_rng(high)
    bits = rng.integers(0, 2, size=(60, 12))
    values = rng.integers(1, high, size=60, endpoint=True)
    values[rng.random(60) < 0.5] = high
    table = CountsTable(tuple(f"b{i}" for i in range(12)), "new", bits, values)
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7 * (12 + 21))
    write_counts(tmp_path / "counts.txt", table)
    lines = [
        "".join(map(str, row)) + f" {count}"
        for row, count in zip(table.bits.tolist(), table.counts.tolist())
    ]
    header = "layout: " + " ".join(table.labels) + "\nscheme: new\n"
    assert (tmp_path / "counts.txt").read_text() == header + "\n".join(lines) + "\n"


def test_counts_duplicates_merge(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("layout: a b\nscheme: new\n10 44\n10 4\n01 1\n")
    loaded = read_counts(path)
    assert loaded.bits.tolist() == [[0, 1], [1, 0]]
    assert loaded.counts.tolist() == [1, 48]


def test_counts_missing_layout(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("scheme: new\n10 4\n")
    with pytest.raises(DataError, match="layout"):
        read_counts(path)


def test_counts_wrong_bitstring_length(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("layout: a b c\nscheme: new\n10 4\n")
    with pytest.raises(DataError, match="does not match"):
        read_counts(path)


def test_counts_unknown_scheme_is_data_error(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("layout: a b\nscheme: bogus\n10 4\n")
    with pytest.raises(DataError, match="unknown scheme 'bogus'"):
        read_counts(path)
    path.write_text("layout: a b\nscheme:\n10 4\n")
    assert read_counts(path).scheme == ""


def test_counts_malformed_line(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("layout: a\nscheme: new\n2 4\n")
    with pytest.raises(DataError, match="expected '<bitstring> <count>'"):
        read_counts(path)


def test_counts_must_fit_in_64_bits(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(f"layout: a\nscheme: new\n1 {2**63 - 1}\n")
    assert read_counts(path).counts.tolist() == [2**63 - 1]
    path.write_text(f"layout: a\nscheme: new\n1 {2**63}\n")
    with pytest.raises(DataError, match="exceeds the 64-bit range"):
        read_counts(path)


def test_table_export_includes_reference_mismatches():
    plan = layout_plan("new", 4)
    doc = table_to_dict(plan, decode_all(plan), reference_rows=reference_table_rows("new_n4"))
    assert doc["scheme"] == "new"
    assert doc["n"] == 4
    assert doc["rows"]["01"]["permutation"] == [1, 3, 2, 4]
    assert doc["rows"]["01"]["slot_pairs"] == [[1, 3], [2, 4]]
    assert doc["reference_mismatches"] == []


@pytest.mark.parametrize("load, message", [
    pytest.param(lambda: load_ensemble(10), "ensemble index must be in", id="ensemble_10"),
    pytest.param(lambda: reference_table_rows("note"), "unknown reference table 'note'",
                 id="table_note"),
])
def test_bundled_data_refuses_unknown_names(load, message):
    with pytest.raises(ValueError, match=message):
        load()


def test_reference_estimates_reader(tmp_path):
    path = tmp_path / "ref.csv"
    path.write_text("pair_i,pair_j,exact,estimate\n1,2,0.5,0.49\n")
    assert read_reference_estimates(path) == {(1, 2): 0.49}
    path.write_text("pair_i,pair_j\n1,2\n")
    with pytest.raises(DataError):
        read_reference_estimates(path)


def test_write_csv_formats_each_column_by_its_type(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, {
        "i": np.array([1, 22]),
        "x": np.array([1 / 3, np.nan]),
        "opt": [None, 7],
        "flag": [True, False],
        "text": np.array(["ok", "a,b"]),
    })
    assert path.read_bytes() == (
        b"i,x,opt,flag,text\r\n1,0.3333333333,,true,ok\r\n22,,7,false,\"a,b\"\r\n"
    )
    with pytest.raises(ValueError, match="length"):
        write_csv(path, {"a": [1, 2], "b": [1]})
