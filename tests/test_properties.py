"""Property tests of the shot path against plain reference implementations.

Each reference here is the straightforward form of what the package does
with arrays: ``csv.writer`` for the CSV writer, Python's sorted bitstrings
for ``CountsTable``, an ``np.where`` replay of the controlled swaps for
``builder.decode``, ``slot_pairs`` of one ``decode`` call for
``builder.pair_table``, a one-shard run for the sharded oracle, and
``tally`` of its counts for the per-pair verdict vectors the oracle counts
as it draws.
"""

import csv
import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ensemble, real_pair_coverage
from multiswap import builder, estimation, fileio
from multiswap.builder import decode, layout_plan, pair_table, slot_pairs
from multiswap.estimation import (
    CountsTable,
    decide,
    estimate_all_overlaps,
    oracle_sample,
    tally,
)


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _reference_csv(path, columns: dict) -> None:
    """The CSV writer's contract, spelled out with ``csv.writer``."""
    cells = []
    for values in columns.values():
        column = np.asarray(values)
        if column.dtype.kind in "iu":
            cells.append([str(v) for v in column.tolist()])
        elif column.dtype.kind == "f":
            cells.append(["" if v != v else f"{v:.10g}" for v in column.tolist()])
        else:
            cells.append([_reference_cell(v) for v in column.tolist()])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\r\n\t;é')), max_size=6)
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 1e-300, 5e-324, 1 / 3, float("nan")]),
)


@st.composite
def _column(draw, rows: int):
    kind = draw(st.sampled_from(["int", "float", "bool", "text", "mixed"]))
    if kind == "int":
        values = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows))
        return np.array(values, dtype=np.int64)
    if kind == "float":
        return np.array(draw(st.lists(_FLOATS, min_size=rows, max_size=rows)))
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    if kind == "text":
        return np.array(draw(st.lists(_TEXT, min_size=rows, max_size=rows)), dtype=str)
    cell = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), _FLOATS, _TEXT)
    return draw(st.lists(cell, min_size=rows, max_size=rows))


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 12))
    names = draw(st.lists(_TEXT, min_size=1, max_size=4))
    return {f"{i}{name}" if i else name: draw(_column(rows)) for i, name in enumerate(names)}


@settings(max_examples=200, deadline=None)
@given(_tables(), st.sampled_from([1, 3, 1 << 16]))
def test_write_csv_matches_csv_writer(tmp_path_factory, columns, block):
    directory = tmp_path_factory.mktemp("csv")
    with mock.patch.object(fileio, "_CSV_BLOCK", block):
        fileio.write_csv(directory / "fast.csv", columns)
    _reference_csv(directory / "reference.csv", columns)
    assert (directory / "fast.csv").read_bytes() == (directory / "reference.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_counts_table_sorts_and_merges_like_bitstrings(data):
    width = data.draw(st.sampled_from([1, 63, 64, 65, 128, 129]))
    pool = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=6))
    rows = data.draw(st.lists(
        st.tuples(st.sampled_from(pool), st.integers(0, 2**40)), max_size=30
    ))
    keys = [format(key, f"0{width}b") for key, _ in rows]
    bits = np.array([[int(c) for c in key] for key in keys], dtype=np.uint8).reshape(-1, width)
    table = CountsTable(tuple(f"b{i}" for i in range(width)), "new", bits, [c for _, c in rows])
    expected: dict[str, int] = {}
    for key, (_, count) in zip(keys, rows):
        expected[key] = expected.get(key, 0) + count
    got = ["".join(map(str, row)) for row in table.bits.tolist()]
    assert got == sorted(expected)
    assert table.counts.tolist() == [expected[key] for key in got]
    assert table.counts.dtype == np.int64


def _reference_decode(plan, ancilla_bits) -> np.ndarray:
    """The controlled swaps replayed with ``np.where``, one pair at a time."""
    fire = np.asarray(ancilla_bits, dtype=bool).T
    labels = np.repeat(np.arange(1, plan.n + 1)[:, None], fire.shape[1], axis=1)
    for anc, ra, rb in plan.controlled_swaps:
        a, b = labels[ra - 1].copy(), labels[rb - 1].copy()
        labels[ra - 1] = np.where(fire[anc], b, a)
        labels[rb - 1] = np.where(fire[anc], a, b)
    return labels


@functools.lru_cache(maxsize=None)
def _plan(scheme: str, n: int):
    return layout_plan(scheme, n)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.just("new"), st.sampled_from([4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
        ),
        st.tuples(st.just("san"), st.sampled_from([4, 8, 16, 32, 64, 128, 256])),
    ),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_decode_matches_where_reference(case, outcomes, seed):
    plan = _plan(*case)
    bits = np.random.default_rng(seed).integers(0, 2, size=(outcomes, plan.ancilla_count))
    labels = decode(plan, bits)
    assert np.array_equal(labels, _reference_decode(plan, bits))


@pytest.mark.parametrize("scheme, n", [("new", 4), ("new", 64), ("san", 16), ("san", 64)])
@pytest.mark.parametrize("block", [1, 5, 64])
def test_pair_table_in_blocks_equals_one_decode(scheme, n, block, monkeypatch):
    # 23 outcomes in blocks of 1, 5 or all of them give one decode's pairs,
    # stored slot-major: each slot's pair ranks are contiguous
    monkeypatch.setattr(builder, "_OUTCOME_BLOCK", block)
    plan = _plan(scheme, n)
    bits = np.random.default_rng(n + block).integers(0, 2, size=(23, plan.ancilla_count))
    table = pair_table(plan, bits)
    labels = decode(plan, bits)
    assert np.array_equal(table, slot_pairs(plan, labels))
    assert table.dtype == slot_pairs(plan, labels).dtype
    assert table.T.flags.c_contiguous
    # one index per unordered pair: the row of (min, max) of the slot's labels
    # among the pairs in combinations order
    rank = {p: r for r, p in enumerate(itertools.combinations(range(1, n + 1), 2))}
    a, b = (labels[np.array(registers) - 1].T.tolist() for registers in zip(*plan.slots))
    expected = [[rank[min(x, y), max(x, y)] for x, y in zip(*row)] for row in zip(a, b)]
    assert table.tolist() == expected


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["new", "san"]),
    st.integers(2, 256),
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)
def test_samples_sum_to_shots_times_real_slots(scheme, m, shots, seed):
    ensemble = random_ensemble(np.random.default_rng(seed), m)
    result = estimate_all_overlaps(decide(ensemble, scheme, shots, seed, engine="oracle"))
    plan, counts = result.run.plan, result.counts
    labels = _reference_decode(plan, counts.bits[:, : plan.ancilla_count])
    real = np.array([
        (labels[a - 1] <= m) & (labels[b - 1] <= m) for a, b in plan.slots
    ]).sum(axis=0)
    assert result.estimates.samples.sum() == int(counts.counts @ real)
    assert counts.total_shots == shots


def _sharded(shards: int, fn, *args):
    """``fn(*args)`` with rows split over ``shards`` shards of any size."""
    with mock.patch.object(estimation, "_SHARDS", shards), \
            mock.patch.object(estimation, "_MIN_SHARD_ROWS", 1):
        return fn(*args)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["new", "san"]),
    st.integers(2, 64),
    st.integers(1, 3),
    st.integers(0, 2**64 - 1),
    st.integers(1, 7),
)
def test_sharded_oracle_and_tally_equal_one_shard(scheme, m, width, seed, shards):
    # the sharded oracle's rows and its verdict matrices are one shard's
    ensemble = random_ensemble(np.random.default_rng(seed), m, width)
    run = decide(ensemble, scheme, 257, seed, engine="oracle")
    counts, matrices = _sharded(shards, oracle_sample, run)
    serial, serial_matrices = _sharded(1, oracle_sample, run)
    assert np.array_equal(counts.bits, serial.bits)
    assert np.array_equal(counts.counts, serial.counts)
    assert all(np.array_equal(a, b) for a, b in zip(matrices, serial_matrices))


@pytest.mark.parametrize("scheme, n, shots", [
    ("new", 16, 2**14),
    ("san", 16, 2**14),
    ("new", 64, 2**15),
])
def test_sample_counts_follow_pair_coverage(scheme, n, shots):
    # a pair sits in at most one slot per ancilla outcome, so its sample
    # count is Binomial(shots, c / 2**d) for coverage c and d ancillas
    ensemble = random_ensemble(np.random.default_rng(11), n)
    result = estimate_all_overlaps(decide(ensemble, scheme, shots, 11, engine="oracle"))
    pairs, coverage = real_pair_coverage(result.run.plan)
    assert np.array_equal(result.estimates.pair_i, pairs[:, 0])
    assert np.array_equal(result.estimates.pair_j, pairs[:, 1])
    p = coverage / (1 << result.run.plan.ancilla_count)
    assert (p > 0).all() and (p < 1).all()
    z = (result.estimates.samples - shots * p) / np.sqrt(shots * p * (1 - p))
    assert np.abs(z).max() <= 6.0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["new", "san"]),
    st.integers(2, 64),
    st.integers(1, 3),
    st.integers(0, 2**64 - 1),
    st.integers(1, 7),
    st.sampled_from([1, 7, estimation._VERDICT_BLOCK]),
)
def test_the_oracle_matrices_are_the_tally_of_its_counts(scheme, m, width, seed, shards, block):
    # the verdicts each shard counts as it draws, in verdict blocks of one
    # word, seven words or the default, are tally's verdicts of its rows
    ensemble = random_ensemble(np.random.default_rng(seed), m, width)
    run = decide(ensemble, scheme, 300, seed, engine="oracle")
    with mock.patch.object(estimation, "_VERDICT_BLOCK", block):
        counts, matrices = _sharded(shards, oracle_sample, run)
    assert all(np.array_equal(a, b) for a, b in zip(matrices, tally(counts, run.plan)))
    n = run.plan.n
    assert all(t.shape == (n * (n - 1) // 2,) for t in matrices)  # one entry per pair
