import json

import numpy as np
import pytest

from multiswap.builder import build_u4, derive_permutation_table
from multiswap.estimation import CountsTable
from multiswap.fileio import (
    DataError,
    load_states,
    read_counts,
    read_reference_estimates,
    save_states,
    table_to_dict,
    write_counts,
    write_csv,
)
from multiswap.fixtures import reference_table_rows


def test_states_round_trip(tmp_path, d0):
    path = tmp_path / "states.json"
    save_states(path, d0, label="round-trip")
    loaded = load_states(path)
    assert loaded.n == d0.n
    for a, b in zip(loaded.states, d0.states):
        assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


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


def test_counts_malformed_line(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text("layout: a\nscheme: new\n2 4\n")
    with pytest.raises(DataError, match="expected '<bitstring> <count>'"):
        read_counts(path)


def test_table_export_includes_reference_mismatches():
    _, plan = build_u4()
    table = derive_permutation_table(plan)
    doc = table_to_dict(
        table, scheme="new", reference_rows=reference_table_rows("new_n4")
    )
    assert doc["n"] == 4
    assert doc["rows"]["01"]["permutation"] == [1, 3, 2, 4]
    assert doc["rows"]["01"]["slot_pairs"] == [[1, 3], [2, 4]]
    assert doc["reference_mismatches"] == []


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
