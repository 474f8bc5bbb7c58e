import itertools

import numpy as np
import pytest

from multiswap import estimation
from multiswap.estimation import (
    CountsTable,
    PairEstimates,
    estimate_all_overlaps,
    oracle_distribution,
    oracle_sample,
    plan_for,
    replay,
    tally,
)
from multiswap.fixtures import reference_counts, reference_estimates
from multiswap.builder import input_factors
from multiswap.sim import measured_distribution
from multiswap.states import StateEnsemble, basis_state, exact_overlap, tensor_product

from conftest import outcome_count, random_ensemble


def _from_verdicts(t0, t1):
    """Estimates for one pair (6, 7) per verdict split."""
    pairs = np.tile([6, 7], (len(t0), 1))
    return PairEstimates.from_verdicts(pairs, t0, t1, np.full(len(t0), np.nan))


def test_estimate_worked_example():
    est = _from_verdicts([601], [403])
    assert est.estimate[0] == pytest.approx(0.1972, abs=1e-4)
    assert est.samples[0] == 1004
    assert est.stderr[0] == pytest.approx(1 / np.sqrt(1004))


def test_estimate_extremes():
    assert _from_verdicts([500, 250], [0, 250]).estimate.tolist() == [1.0, 0.0]


def test_estimate_without_samples_is_marked_not_crashed():
    est = _from_verdicts([0], [0])
    assert np.isnan(est.estimate[0])
    assert est.samples[0] == 0
    assert np.isnan(est.stderr[0])


def test_estimates_outside_the_unit_range_are_rejected():
    with pytest.raises(ValueError, match="outside"):
        PairEstimates(np.array([[1, 2]]), np.ones(1), np.ones(1, dtype=np.int64),
                      np.array([1.5]), np.ones(1))


def test_tally_worked_example_from_recorded_counts(d0):
    counts = reference_counts()
    assert counts.total_shots == 8192
    assert outcome_count(counts, "11111010") == 48  # duplicate rows merged
    _, _, _, plan = plan_for(d0, "new", "standard")
    pairs, t0, t1 = tally(counts, plan)
    row = pairs.tolist().index([6, 7])
    assert (t0[row], t1[row]) == (601, 403)
    assert pairs.tolist() == [list(p) for p in itertools.combinations(range(1, 9), 2)]
    assert (t0 + t1 > 0).all()


def test_tally_rejects_wrong_layout(d0):
    _, _, _, plan = plan_for(d0, "new", "standard")
    bad = CountsTable(("s1", "s2", "r1"), "new", np.zeros((1, 3)), [1])
    with pytest.raises(ValueError, match="expected"):
        tally(bad, plan)


def test_tally_uniform_synthetic_counts_cover_every_pair(d0):
    ensemble = StateEnsemble(d0.states[:4])
    _, _, _, plan = plan_for(ensemble, "new", "standard")
    labels = plan.measured_labels()
    bits = np.array(list(itertools.product((0, 1), repeat=4)))
    counts = CountsTable(labels, "new", bits, np.full(16, 5))
    pairs, t0, t1 = tally(counts, plan)
    assert len(pairs) == 6
    assert (t0 + t1 > 0).all()


def _same_counts(a: CountsTable, b: CountsTable) -> bool:
    return (
        a.labels == b.labels
        and np.array_equal(a.bits, b.bits)
        and np.array_equal(a.counts, b.counts)
    )


def test_run_experiment_deterministic(d0):
    first = estimate_all_overlaps(d0, "new", shots=2048, seed=11).counts
    second = estimate_all_overlaps(d0, "new", shots=2048, seed=11).counts
    assert _same_counts(first, second)
    third = estimate_all_overlaps(d0, "new", shots=2048, seed=12).counts
    assert not _same_counts(first, third)


def test_run_experiment_identical_basis_states_never_fail():
    ensemble = StateEnsemble(tuple(basis_state(1) for _ in range(4)))
    counts = estimate_all_overlaps(ensemble, "new", shots=512, seed=3).counts
    assert counts.total_shots == 512
    assert not counts.bits[:, 2:].any()  # both slot verdicts always succeed


def test_qubit_cap_error_names_oracle(d0):
    with pytest.raises(ValueError, match="oracle"):
        estimate_all_overlaps(
            d0, "new", shots=16, seed=0, engine="statevector", max_qubits=10
        )


def test_auto_prefers_statevector_then_oracle(d0):
    result = estimate_all_overlaps(d0, shots=64, seed=0, engine="auto")
    assert result.engine == "statevector"
    result = estimate_all_overlaps(d0, shots=64, seed=0, engine="auto", max_qubits=10)
    assert result.engine == "oracle"


@pytest.mark.parametrize("n", [4, 8])
def test_oracle_distribution_matches_full_circuit(n):
    rng = np.random.default_rng(60 + n)
    ensemble = random_ensemble(rng, n)
    padded, _, circuit, plan = plan_for(ensemble, "new", "standard")
    _, full = measured_distribution(circuit, tensor_product(input_factors(padded, plan)))
    model = oracle_distribution(padded, plan)
    tv = 0.5 * np.abs(full - model).sum()
    assert tv <= 1e-9


def test_oracle_identical_states_all_verdicts_zero():
    ensemble = StateEnsemble(tuple(basis_state(1) for _ in range(4)))
    _, _, _, plan = plan_for(ensemble, "new", "standard")
    counts = oracle_sample(ensemble, plan, shots=400, seed=5)
    assert counts.total_shots == 400
    assert not counts.bits[:, 2:].any()


def test_oracle_scales_past_the_statevector_cap():
    rng = np.random.default_rng(9)
    ensemble = random_ensemble(rng, 64)
    result = estimate_all_overlaps(ensemble, shots=20000, seed=2, engine="oracle")
    assert result.engine == "oracle"
    assert len(result.estimates) == 64 * 63 // 2
    assert (result.estimates.samples > 0).all()


def test_sample_bookkeeping_identities(d0):
    shots = 4096
    new = estimate_all_overlaps(d0, "new", shots=shots, seed=21)
    assert new.estimates.samples.sum() == shots * 4
    san = estimate_all_overlaps(d0, "san", shots=shots, seed=21)
    assert san.estimates.samples.sum() == shots


def test_padded_run_reports_only_real_pairs(d0):
    five = StateEnsemble(d0.states[:5])
    result = estimate_all_overlaps(five, shots=2048, seed=4)
    assert result.estimates.pairs.tolist() == [
        [i, j] for i in range(1, 6) for j in range(i + 1, 6)
    ]


def test_estimates_converge_with_shot_count(d0):
    worst = []
    for shots in (1000, 10000, 100000):
        result = estimate_all_overlaps(d0, shots=shots, seed=31)
        est = result.estimates
        worst.append(np.abs(est.estimate - est.exact).max())
        # every pair within its own 3 sigma band
        assert (np.abs(est.estimate - est.exact) <= 3 * est.stderr).all()
    assert worst[-1] < worst[0]


def test_estimator_is_unbiased_across_seeds():
    rng = np.random.default_rng(77)
    ensemble = random_ensemble(rng, 4)
    _, _, _, plan = plan_for(ensemble, "new", "standard")
    shots, seeds = 2000, 60
    sums = np.zeros(6)
    for seed in range(seeds):
        counts = oracle_sample(ensemble, plan, shots, seed)
        pairs, t0, t1 = tally(counts, plan)
        sums += 2.0 * t0 / (t0 + t1) - 1.0
    for (i, j), total in zip(pairs.tolist(), sums):
        o = exact_overlap(ensemble.state(i), ensemble.state(j))
        mean = total / seeds
        # per-seed sd is at most 1/sqrt(m); the mean tightens by sqrt(seeds)
        m = shots / 2
        assert abs(mean - o) <= 3.0 / np.sqrt(m * seeds)


def test_replay_round_trips_run_counts(d0):
    result = estimate_all_overlaps(d0, shots=4096, seed=13)
    report = replay(result.counts, result.plan, d0)
    assert report.total_shots == 4096
    assert np.array_equal(report.estimates.pairs, result.estimates.pairs)
    assert np.array_equal(report.estimates.estimate, result.estimates.estimate)
    assert np.array_equal(report.estimates.samples, result.estimates.samples)


def test_replay_recorded_run_against_published_estimates(d0):
    counts = reference_counts()
    _, _, _, plan = plan_for(d0, "new", "standard")
    report = replay(counts, plan, d0, reference=reference_estimates(), tolerance=1e-3)
    assert len(report.estimates) == 28
    assert report.total_shots == 8192
    # most published estimates are reproduced from the published counts
    # bit-for-bit; the handful that are not get flagged, which is the point
    assert (report.flags == "ok").sum() >= 25
    assert report.flags[report.estimates.pairs.tolist().index([6, 7])] == "ok"


def test_replay_aligns_reference_with_pairs(d0):
    counts = reference_counts()
    _, _, _, plan = plan_for(d0, "new", "standard")
    # labels outside 1..8 match no row; a reversed key names the same pair
    reference = {(7, 6): 0.5, (0, 1): 0.5, (8, 9): 0.5}
    report = replay(counts, plan, d0, reference=reference, tolerance=0.01)
    pairs = report.estimates.pairs.tolist()
    row = pairs.index([6, 7])
    assert report.reference[row] == 0.5
    assert np.isnan(np.delete(report.reference, row)).all()
    assert report.flags.tolist() == ["deviates" if p == [6, 7] else "ok" for p in pairs]
    columns = report.columns()
    assert list(columns)[-3:] == ["reference", "abs_diff", "flag"]
    assert columns["abs_diff"][row] == pytest.approx(abs(0.5 - report.estimates.estimate[row]))
    assert np.isnan(np.delete(columns["abs_diff"], row)).all()
    with pytest.raises(ValueError, match="both orders"):
        replay(counts, plan, d0, reference={(6, 7): 0.5, (7, 6): 0.5})


def test_replay_size_mismatch(d0):
    counts = reference_counts()
    small = StateEnsemble(d0.states[:4])
    _, _, _, plan = plan_for(d0, "new", "standard")
    with pytest.raises(ValueError, match="registers"):
        replay(counts, plan, small)


def test_destructive_final_variant_pipeline(d0):
    ensemble = StateEnsemble(d0.states[:4])
    result = estimate_all_overlaps(
        ensemble, shots=200000, seed=19, final_variant="destructive"
    )
    est = result.estimates
    assert len(est) == 6
    assert (np.abs(est.estimate - est.exact) <= 4 * est.stderr).all()


@pytest.mark.parametrize("n", [128, 256])
def test_oracle_identical_states_at_scale(n):
    # every overlap is exactly 1, so every verdict succeeds and every real
    # pair must be reached; sizes past 64 slots once overflowed a packed key
    ensemble = StateEnsemble(tuple(basis_state(1) for _ in range(n)))
    shots = 100_000
    result = estimate_all_overlaps(ensemble, shots=shots, seed=3, engine="oracle")
    assert result.engine == "oracle"
    est = result.estimates
    assert len(est) == n * (n - 1) // 2
    assert (est.samples > 0).all()
    assert est.samples.sum() == shots * n // 2
    assert (est.estimate == 1.0).all()


def test_san_destructive_pipeline_and_replay(d0):
    # the baseline scheme measures all n registers destructively but tests
    # only slot (1, 2); each verdict comes from that slot's two registers
    result = estimate_all_overlaps(
        d0, "san", shots=200_000, seed=23, final_variant="destructive",
        engine="statevector",
    )
    assert result.counts.labels == result.plan.measured_labels()
    est = result.estimates
    assert len(est) == 28
    assert (np.abs(est.estimate - est.exact) <= 4 * est.stderr).all()
    replayed = replay(result.counts, result.plan, d0).estimates
    for column in ("pairs", "estimate", "samples"):
        assert np.array_equal(getattr(replayed, column), getattr(est, column))


def test_counts_table_merges_and_sorts_rows():
    table = CountsTable(("a", "b"), "new", [[1, 0], [0, 1], [1, 0]], [3, 1, 4])
    assert table.bits.tolist() == [[0, 1], [1, 0]]
    assert table.counts.tolist() == [1, 7]
    assert table.total_shots == 8
    with pytest.raises(ValueError, match="0/1"):
        CountsTable(("a", "b"), "new", [[2, 0]], [1])
    with pytest.raises(ValueError, match="non-negative"):
        CountsTable(("a", "b"), "new", [[1, 0]], [-1])


def test_run_validates_configuration(d0):
    for kwargs, message in (
        ({"scheme": "old"}, "scheme"),
        ({"final_variant": "weak"}, "final variant"),
        ({"engine": "gpu"}, "engine"),
        ({"shots": 0}, "shots"),
        ({"seed": -1}, "seed"),
        ({"seed": 1 << 64}, "seed"),
    ):
        with pytest.raises(ValueError, match=message):
            estimate_all_overlaps(d0, **kwargs)


def test_destructive_verdict_is_parity_over_wide_registers():
    # with two qubits per register a verdict is the parity of two AND bits
    ensemble = random_ensemble(np.random.default_rng(5), 4, width=2)
    result = estimate_all_overlaps(
        ensemble, shots=100_000, seed=29, final_variant="destructive",
        engine="statevector",
    )
    est = result.estimates
    assert (np.abs(est.estimate - est.exact) <= 4 * est.stderr).all()


@pytest.mark.parametrize("block", [1, 7 * 8, 1000])
def test_oracle_verdict_blocks_keep_the_draw(block, monkeypatch):
    # row blocks of 1, 7 and 125 rows (8 slots) across a chunk boundary give
    # the rows that one draw per chunk gives
    ensemble = random_ensemble(np.random.default_rng(16), 16)
    _, _, _, plan = plan_for(ensemble, "new", "standard")
    shots = estimation._ORACLE_CHUNK + 1000
    whole = oracle_sample(ensemble, plan, shots, seed=4)
    monkeypatch.setattr(estimation, "_VERDICT_BLOCK", block)
    blocked = oracle_sample(ensemble, plan, shots, seed=4)
    assert np.array_equal(blocked.bits, whole.bits)
    assert np.array_equal(blocked.counts, whole.counts)
