import itertools
import sys

import numpy as np
import pytest

from multiswap.analytics import (
    RESOURCE_COLUMNS,
    precision,
    resource_report,
    scatter_data,
)
from multiswap.builder import pad_inputs
from multiswap.estimation import PairEstimates, decide, estimate_all_overlaps

from conftest import random_ensemble


def test_precision_model_at_recorded_run_size():
    model = precision(8, 8192)
    assert model.baseline_per_pair == pytest.approx(292.57, abs=0.01)
    assert model.multiplexed_per_pair == pytest.approx(1170.29, abs=0.01)
    assert model.ratio == 4.0


def test_precision_two_states_run_on_four_registers():
    model = precision(2, 5000)
    assert model.n == 4
    assert model.baseline_per_pair == pytest.approx(5000 / 6)
    assert model.multiplexed_per_pair == pytest.approx(5000 / 3)
    assert model.ratio == 2.0


def test_precision_size_is_the_padded_ensemble_size():
    rng = np.random.default_rng(9)
    for m in range(2, 10):
        assert precision(m, 100).n == pad_inputs(random_ensemble(rng, m)).n, m


def test_precision_ratio_is_half_n():
    model = precision(4, 1000)
    assert model.ratio == 2.0
    for n in range(2, 65):
        model = precision(n, 1000)
        assert model.ratio == model.n / 2.0


def test_precision_pads_to_stepwise_size():
    assert precision(5, 100).n == 8
    assert precision(9, 100).n == 16


def test_precision_input_validation():
    with pytest.raises(ValueError):
        precision(1, 100)
    with pytest.raises(ValueError):
        precision(4, 0)


def test_precision_takes_shots_up_to_half_the_largest_float():
    # 2.0 * shots must stay finite; 10**400 raised OverflowError
    largest = int(sys.float_info.max / 2)
    model = precision(4, largest)
    assert np.isfinite([model.baseline_per_pair, model.multiplexed_per_pair]).all()
    for shots in (largest + 1, 10**400):
        with pytest.raises(ValueError, match="shots must be in 1.."):
            precision(4, shots)


def test_resource_report_anchor_rows():
    rows = {row["n"]: row for row in resource_report(5)}
    assert sorted(rows) == [4, 8, 16, 32]
    assert (rows[8]["new_cswap"], rows[8]["new_ancilla"]) == (8, 4)
    assert (rows[8]["san_cswap"], rows[8]["san_ancilla"]) == (9, 6)
    assert (rows[4]["new_cswap"], rows[4]["new_ancilla"]) == (2, 2)
    assert (rows[4]["san_cswap"], rows[4]["san_ancilla"]) == (3, 3)
    assert (rows[32]["new_cswap"], rows[32]["new_ancilla"]) == (64, 8)
    assert (rows[32]["san_cswap"], rows[32]["san_ancilla"]) == (45, 12)


def test_resource_report_measured_equals_closed_form():
    for row in resource_report(6):
        assert row["new_cswap_measured"] == row["new_cswap"]
        assert row["new_ancilla_measured"] == row["new_ancilla"]
        assert row["san_cswap_measured"] == row["san_cswap"]
        assert row["san_ancilla_measured"] == row["san_ancilla"]


def test_resource_report_flags_conflicting_formulas():
    for row in resource_report(5):
        assert row["formula_conflict"] is True
        assert row["new_cswap_alt"] == row["n"] * row["k"]
        assert row["san_cswap_alt"] == 3 * (row["n"] - 1)
        assert row["new_cswap_alt"] != row["new_cswap"]
    assert set(RESOURCE_COLUMNS) == set(resource_report(3)[0])


def test_resource_report_rejects_small_k():
    with pytest.raises(ValueError):
        resource_report(1)


def test_empirical_precision_ratio(d0):
    shots = 20000
    new = estimate_all_overlaps(decide(d0, "new", shots=shots, seed=41))
    san = estimate_all_overlaps(decide(d0, "san", shots=shots, seed=41))
    avg_new = new.estimates.samples.sum() / 28
    avg_san = san.estimates.samples.sum() / 28
    assert avg_new / avg_san == pytest.approx(4.0, rel=0.05)


def test_scatter_rows_and_summary(d0):
    result = estimate_all_overlaps(decide(d0, shots=8192, seed=1))
    columns, summary = scatter_data(result.estimates)
    assert list(columns) == ["estimate", "exact", "pair_i", "pair_j", "samples"]
    assert all(len(column) == 28 for column in columns.values())
    assert summary.rows == 28
    assert summary.rmse <= 0.05
    assert summary.max_abs_error < 0.1


def _estimates(exact, estimate, samples):
    """The first len(exact) pairs of eight labels with the given columns."""
    pairs = np.array(list(itertools.combinations(range(1, 9), 2))[: len(exact)])
    return PairEstimates(pairs.reshape(-1, 2), np.asarray(exact), np.asarray(samples),
                         np.asarray(estimate), np.full(len(exact), np.nan))


def test_scatter_exact_mode_sits_on_diagonal(d0):
    # noise-free estimates: 2 * P(verdict 0) - 1 with P = (1 + overlap) / 2
    exact = d0.overlaps  # the 28 pairs in combinations order, as _estimates lists them
    columns, summary = scatter_data(_estimates(exact, 2.0 * (1.0 + exact) / 2.0 - 1.0,
                                               np.ones(28)))
    assert summary.max_abs_error <= 1e-10
    assert np.allclose(columns["estimate"], columns["exact"], atol=1e-10)


def test_scatter_empty_input():
    columns, summary = scatter_data(_estimates([], [], []))
    assert all(len(column) == 0 for column in columns.values())
    assert summary.rows == 0


def test_scatter_skips_unsampled_pairs():
    columns, summary = scatter_data(_estimates([0.5, 0.25], [np.nan, 0.5], [0, 4]))
    assert columns["pair_j"].tolist() == [3]
