import itertools
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from multiswap import builder, estimation, fileio, sim
from multiswap.estimation import (
    ENGINES,
    CountsTable,
    DataError,
    PairEstimates,
    decide,
    estimate_all_overlaps,
    layout_for,
    oracle_distribution,
    oracle_sample,
    replay,
    tally,
)
from multiswap.fixtures import reference_counts, reference_estimates
from multiswap.builder import assemble, decode, input_factors, layout_plan, pair_coverage
from multiswap.circuits import index_bits
from multiswap.sim import measured_distribution
from multiswap.states import StateEnsemble, basis_state, exact_overlap, tensor_product
from multiswap.swaptest import destructive_decode

from conftest import outcome_count, overlap_matrix, pair_labels, random_ensemble


def _from_verdicts(t0, t1):
    """Estimates for one pair (6, 7) per verdict split."""
    return PairEstimates.from_verdicts(
        np.full(len(t0), 6), np.full(len(t0), 7), t0, t1, np.full(len(t0), np.nan))


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
        PairEstimates(np.array([1]), np.array([2]), np.ones(1), np.array([1.5]),
                      np.ones(1, dtype=np.int64), np.ones(1))


def test_tally_worked_example_from_recorded_counts(d0):
    counts = reference_counts()
    assert counts.total_shots == 8192
    assert outcome_count(counts, "11111010") == 48  # duplicate rows merged
    _, plan = layout_for(d0, "new", "standard")
    t0, t1 = tally(counts, plan)
    assert t0.shape == t1.shape == (28,) and t0.dtype == t1.dtype == np.int64
    assert (t0[25], t1[25]) == (601, 403)  # pair (6, 7), in either order: rank 25
    # rows are the pairs i < j in combinations order, each at its pair_rank
    est = replay(counts, d0).estimates
    assert pair_labels(est) == list(itertools.combinations(range(1, 9), 2))
    assert builder.pair_rank(8, est.pair_i, est.pair_j).tolist() == list(range(28))
    assert np.array_equal(est.samples, t0 + t1)
    assert (t0 + t1).min() > 0


def test_tally_rejects_wrong_layout(d0):
    _, plan = layout_for(d0, "new", "standard")
    bad = CountsTable(("s1", "s2", "r1"), "new", np.zeros((1, 3)), [1])
    with pytest.raises(ValueError, match="expected"):
        tally(bad, plan)


@pytest.mark.parametrize("final", ["standard", "destructive"])
def test_tally_of_a_table_with_no_rows_counts_nothing(d0, final):
    _, plan = layout_for(d0, "new", final)
    labels = plan.measured_labels()
    empty = CountsTable(labels, "new", np.zeros((0, len(labels))), [])
    t0, t1 = tally(empty, plan)
    assert t0.shape == t1.shape == (28,)  # one entry per pair
    assert not t0.any() and not t1.any()


def test_tally_uniform_synthetic_counts_cover_every_pair(d0):
    ensemble = StateEnsemble(d0.amplitudes[:4])
    _, plan = layout_for(ensemble, "new", "standard")
    labels = plan.measured_labels()
    bits = np.array(list(itertools.product((0, 1), repeat=4)))
    counts = CountsTable(labels, "new", bits, np.full(16, 5))
    t0, t1 = tally(counts, plan)
    assert t0.shape == (6,)  # one entry per pair
    assert (t0 + t1 > 0).all()


@pytest.mark.parametrize(
    "scheme, n", [("new", 2**k) for k in range(2, 7)] + [("san", 2**k) for k in range(2, 6)]
)
def test_tally_of_every_outcome_once_is_the_pair_coverage(scheme, n):
    # tally addresses pairs itself; one shot of each ancilla outcome with
    # every verdict 0 must land exactly where builder.slot_pairs puts them
    plan = layout_plan(scheme, n, 1, "standard")
    d = plan.ancilla_count
    bits = np.zeros((1 << d, d + len(plan.slots)), dtype=np.uint8)
    bits[:, :d] = index_bits(np.arange(1 << d), d)
    counts = CountsTable(plan.measured_labels(), scheme, bits, np.ones(1 << d))
    t0, t1 = tally(counts, plan)
    assert not t1.any()
    assert np.array_equal(t0, pair_coverage(plan))


def test_tally_refuses_a_plan_without_final_tests():
    plan = layout_plan("new", 8)  # the bare network measures only ancillas
    counts = CountsTable(plan.measured_labels(), "new", np.zeros((1, 4)), [1])
    with pytest.raises(ValueError, match=r"final variant None; expected one of \('standard'"):
        tally(counts, plan)


@pytest.mark.parametrize("engine", ENGINES)
def test_estimate_refuses_a_bare_network(d0, engine, monkeypatch):
    def no_plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(estimation, "layout_for", no_plan)
    with pytest.raises(ValueError, match=r"final variant None; expected one of \('standard'"):
        decide(d0, final_variant=None, engine=engine)


def _same_counts(a: CountsTable, b: CountsTable) -> bool:
    return (
        a.labels == b.labels
        and np.array_equal(a.bits, b.bits)
        and np.array_equal(a.counts, b.counts)
    )


def test_run_experiment_deterministic(d0):
    first = estimate_all_overlaps(decide(d0, "new", shots=2048, seed=11)).counts
    second = estimate_all_overlaps(decide(d0, "new", shots=2048, seed=11)).counts
    assert _same_counts(first, second)
    third = estimate_all_overlaps(decide(d0, "new", shots=2048, seed=12)).counts
    assert not _same_counts(first, third)


def test_run_experiment_identical_basis_states_never_fail():
    ensemble = StateEnsemble([[1, 0]] * 4)
    counts = estimate_all_overlaps(decide(ensemble, "new", shots=512, seed=3)).counts
    assert counts.total_shots == 512
    assert not counts.bits[:, 2:].any()  # both slot verdicts always succeed


def test_qubit_cap_error_names_oracle(d0, monkeypatch):
    monkeypatch.setattr(sim, "MAX_QUBITS", 10)
    with pytest.raises(ValueError, match="oracle"):
        decide(d0, "new", shots=16, seed=0, engine="statevector")


def test_auto_prefers_statevector_then_oracle(d0, monkeypatch):
    result = estimate_all_overlaps(decide(d0, shots=64, seed=0, engine="auto"))
    assert result.run.engine == "statevector"
    monkeypatch.setattr(sim, "MAX_QUBITS", 10)
    result = estimate_all_overlaps(decide(d0, shots=64, seed=0, engine="auto"))
    assert result.run.engine == "oracle"


def test_auto_refuses_a_destructive_plan_above_the_cap_before_any_draw(d0, monkeypatch):
    # above the cap auto picks the oracle, which draws the standard variant
    # only: the run is refused, not run as a different test
    def no_draw(*args, **kwargs):
        raise AssertionError("a shot was drawn")

    monkeypatch.setattr(sim, "draw_stream", no_draw)
    monkeypatch.setattr(estimation, "_draw_stream", no_draw)
    monkeypatch.setattr(sim, "MAX_QUBITS", 10)
    message = "plan ends in 'destructive': run the standard variant, or the statevector engine"
    with pytest.raises(ValueError, match=message):
        decide(d0, final_variant="destructive")


def _no_run(monkeypatch):
    """Fail the test on any shot draw or gate build."""
    def started(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(sim, "draw_stream", started)
    monkeypatch.setattr(estimation, "_draw_stream", started)
    monkeypatch.setattr(estimation, "assemble", started)


_ORACLE_RULE = "the oracle draws standard-variant verdicts only, and the plan ends in 'destructive'"


@pytest.mark.parametrize("cap, kwargs, message", [
    pytest.param(10, {"engine": "statevector"}, "above the dense cap of 10 qubits",
                 id="statevector_over_cap"),
    pytest.param(26, {"engine": "oracle", "final_variant": "destructive"}, _ORACLE_RULE,
                 id="oracle_destructive"),
    *(pytest.param(10, {"engine": engine, "final_variant": "destructive"}, _ORACLE_RULE,
                   id=f"{engine}_destructive_over_cap") for engine in ENGINES),
])
def test_decide_refuses_before_any_draw_or_gate(d0, cap, kwargs, message, monkeypatch):
    # a destructive plan above the cap has no engine, whichever was asked:
    # the refusal names the standard variant, not the oracle as a way out
    _no_run(monkeypatch)
    monkeypatch.setattr(sim, "MAX_QUBITS", cap)
    with pytest.raises(ValueError, match=message):
        decide(d0, **kwargs)


@pytest.mark.parametrize("cap, engine, final, resolved", [
    (26, "auto", "standard", "statevector"),
    (26, "auto", "destructive", "statevector"),
    (10, "auto", "standard", "oracle"),
    (26, "oracle", "standard", "oracle"),
    (26, "statevector", "destructive", "statevector"),
])
def test_decide_resolves_the_engine_without_running(d0, cap, engine, final, resolved,
                                                    monkeypatch):
    _no_run(monkeypatch)
    monkeypatch.setattr(sim, "MAX_QUBITS", cap)
    run = decide(StateEnsemble(d0.amplitudes[:5]), "san", 100, 9, final, engine)
    assert run.engine == resolved
    assert (run.real, run.ensemble.n, run.shots, run.seed) == (5, 8, 100, 9)
    assert (run.plan.scheme, run.plan.n, run.plan.final_variant) == ("san", 8, final)


@pytest.mark.parametrize("engine, final", [
    ("statevector", "standard"), ("statevector", "destructive"), ("oracle", "standard"),
])
def test_result_carries_the_plan_asked_for(d0, engine, final):
    result = estimate_all_overlaps(decide(d0, shots=64, seed=0, final_variant=final, engine=engine))
    assert result.run.plan.final_variant == final
    assert result.counts.labels == result.run.plan.measured_labels()


@pytest.mark.parametrize("n", [4, 8])
def test_oracle_distribution_matches_full_circuit(n):
    rng = np.random.default_rng(60 + n)
    ensemble = random_ensemble(rng, n)
    padded, plan = layout_for(ensemble, "new", "standard")
    circuit = assemble(plan)
    _, full = measured_distribution(circuit, tensor_product(input_factors(padded, plan)))
    model = oracle_distribution(padded, plan)
    tv = 0.5 * np.abs(full - model).sum()
    assert tv <= 1e-9


@pytest.mark.parametrize(
    "scheme, n, width",
    [("new", 16, 1), ("new", 32, 1), ("san", 16, 1), ("san", 32, 1), ("new", 16, 2), ("san", 16, 2)],
)
def test_oracle_distribution_matches_full_circuit_at_scale(scheme, n, width, monkeypatch):
    # the marginal branches on the ancillas and never builds the 2**Q state,
    # so the dense cap is lifted: new n=32 is 56 qubits, and its largest
    # array is the 2**24-entry marginal
    monkeypatch.setattr(sim, "MAX_QUBITS", 64)
    rng = np.random.default_rng(60 + n + width)
    padded, plan = layout_for(random_ensemble(rng, n, width), scheme, "standard")
    _, full = measured_distribution(assemble(plan), input_factors(padded, plan))
    tv = 0.5 * np.abs(full - oracle_distribution(padded, plan)).sum()
    assert tv <= 1e-9


def oracle_slot_marginal(ensemble, plan, slots) -> np.ndarray:
    """The oracle's distribution over the ancillas and the verdicts of the
    0-based ``slots`` only: each ancilla outcome has weight 2**-d, and a
    slot holding pair (i, j) gives verdict 0 with probability
    (1 + overlap) / 2. Indexed like ``sim.measured_distribution`` over the
    ancilla labels, then the slots' result labels in ``slots`` order."""
    d = plan.ancilla_count
    labels = decode(plan, index_bits(np.arange(1 << d), d))
    first = labels[[plan.slots[s][0] - 1 for s in slots]] - 1
    second = labels[[plan.slots[s][1] - 1 for s in slots]] - 1
    p0 = (1 + overlap_matrix(ensemble)[first, second].T) / 2
    probs = np.full((1 << d, 1), 1.0 / (1 << d))
    for c in range(len(slots)):
        verdict = np.stack([p0[:, c], 1 - p0[:, c]], axis=1)
        probs = (probs[:, :, None] * verdict[:, None, :]).reshape(1 << d, -1)
    return probs.reshape(-1)


@pytest.mark.parametrize("scheme, n", [("new", 8), ("new", 16), ("san", 8)])
def test_slot_marginal_of_every_slot_is_the_oracle_distribution(scheme, n):
    rng = np.random.default_rng(70 + n)
    padded, plan = layout_for(random_ensemble(rng, n), scheme, "standard")
    model = oracle_slot_marginal(padded, plan, list(range(len(plan.slots))))
    assert np.allclose(model, oracle_distribution(padded, plan), rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "scheme, n, slots, unbranched", [("new", 64, 3, 0), ("new", 128, 2, 0), ("san", 64, 1, 3)]
)
def test_oracle_slot_marginal_matches_full_circuit(scheme, n, slots, unbranched, monkeypatch):
    # the circuit measures the ancillas and a few slots' result qubits only,
    # so components that no measurement reads are never evolved
    monkeypatch.setattr(sim, "MAX_QUBITS", 256)
    rng = np.random.default_rng(80 + n)
    padded, plan = layout_for(random_ensemble(rng, n), scheme, "standard")
    chosen = sorted(rng.choice(len(plan.slots), slots, replace=False).tolist())
    circuit = assemble(plan)
    d = plan.ancilla_count
    # the marginal branches on at most 2**Q / (_BRANCH_BLOCKS * _BLOCK)
    # outcomes, so this branches on the first d - unbranched ancillas and
    # evolves the rest as ordinary qubits: for san n=64 that is the last
    # stage's triple, so 4,096 passes over the gates replace 32,768 and the
    # controlled swaps run in the buffer at this size as well
    per_branch = 1 << (circuit.qubit_count - d + unbranched)
    monkeypatch.setattr(sim, "_BRANCH_BLOCKS", per_branch // sim._BLOCK)
    measured = circuit.measured[:d] + tuple(circuit.measured[d + s] for s in chosen)
    _, full = measured_distribution(replace(circuit, measured=measured), input_factors(padded, plan))
    tv = 0.5 * np.abs(full - oracle_slot_marginal(padded, plan, chosen)).sum()
    assert tv <= 1e-9


def test_oracle_identical_states_all_verdicts_zero():
    ensemble = StateEnsemble([[1, 0]] * 4)
    counts, _ = oracle_sample(decide(ensemble, shots=400, seed=5, engine="oracle"))
    assert counts.total_shots == 400
    assert not counts.bits[:, 2:].any()


@pytest.mark.parametrize("final, shots, message", [
    pytest.param("standard", 0, "shots must be >= 1", id="zero_shots"),
    pytest.param("destructive", 10, "plan ends in 'destructive'", id="destructive_plan"),
])
def test_oracle_sample_refusals(d0, final, shots, message):
    # decide makes the oracle's refusals: a run it admits is padded, has
    # shots and, on the oracle, ends in the standard variant
    with pytest.raises(ValueError, match=message):
        decide(d0, shots=shots, final_variant=final, engine="oracle")


@pytest.mark.parametrize("n, members, message", [
    pytest.param(64, 64, "too large to enumerate", id="over_24_bits"),  # 10 + 32 bits
    pytest.param(8, 4, "ensemble size does not match", id="size_mismatch"),
])
def test_oracle_distribution_refusals(n, members, message):
    ensemble = random_ensemble(np.random.default_rng(3), members)
    with pytest.raises(ValueError, match=message):
        oracle_distribution(ensemble, layout_plan("new", n, 1, "standard"))


def test_oracle_scales_past_the_statevector_cap():
    rng = np.random.default_rng(9)
    ensemble = random_ensemble(rng, 64)
    result = estimate_all_overlaps(decide(ensemble, shots=20000, seed=2, engine="oracle"))
    assert result.run.engine == "oracle"
    assert len(result.estimates) == 64 * 63 // 2
    assert (result.estimates.samples > 0).all()


def test_sample_bookkeeping_identities(d0):
    shots = 4096
    new = estimate_all_overlaps(decide(d0, "new", shots=shots, seed=21))
    assert new.estimates.samples.sum() == shots * 4
    san = estimate_all_overlaps(decide(d0, "san", shots=shots, seed=21))
    assert san.estimates.samples.sum() == shots


def test_padded_run_reports_only_real_pairs(d0):
    five = StateEnsemble(d0.amplitudes[:5])
    result = estimate_all_overlaps(decide(five, shots=2048, seed=4))
    assert pair_labels(result.estimates) == [
        (i, j) for i in range(1, 6) for j in range(i + 1, 6)
    ]


def test_estimates_converge_with_shot_count(d0):
    worst = []
    for shots in (1000, 10000, 100000):
        result = estimate_all_overlaps(decide(d0, shots=shots, seed=31))
        est = result.estimates
        worst.append(np.abs(est.estimate - est.exact).max())
        # every pair within its own 3 sigma band
        assert (np.abs(est.estimate - est.exact) <= 3 * est.stderr).all()
    assert worst[-1] < worst[0]


def test_estimator_is_unbiased_across_seeds():
    rng = np.random.default_rng(77)
    ensemble = random_ensemble(rng, 4)
    _, plan = layout_for(ensemble, "new", "standard")
    shots, seeds = 2000, 60
    first, second = np.triu_indices(4, k=1)  # the 6 pairs, in pair_rank order
    sums = np.zeros(6)
    for seed in range(seeds):
        counts, _ = oracle_sample(decide(ensemble, shots=shots, seed=seed, engine="oracle"))
        t0, t1 = tally(counts, plan)
        sums += 2.0 * t0 / (t0 + t1) - 1.0
    for i, j, total in zip(first + 1, second + 1, sums):
        o = exact_overlap(ensemble.state(i), ensemble.state(j))
        mean = total / seeds
        # per-seed sd is at most 1/sqrt(m); the mean tightens by sqrt(seeds)
        m = shots / 2
        assert abs(mean - o) <= 3.0 / np.sqrt(m * seeds)


@pytest.mark.parametrize("real", [8, 5])
def test_replay_without_reference_reports_the_exact_column_itself(d0, real):
    # no second gather: the reference column is the estimates' exact column
    ensemble = StateEnsemble(d0.amplitudes[:real])
    counts = estimate_all_overlaps(decide(ensemble, shots=500, seed=2)).counts
    report = replay(counts, ensemble)
    assert np.shares_memory(report.reference, report.estimates.exact)
    assert np.array_equal(report.reference, report.estimates.exact)
    assert len(report.reference) == real * (real - 1) // 2


def test_an_unpadded_runs_rows_are_the_vectors_themselves(d0):
    # no input was padded, so no pair is gathered: the exact column, and
    # replay's default reference with it, is the ensemble's overlap vector
    ensemble = random_ensemble(np.random.default_rng(8), 8)
    result = estimate_all_overlaps(decide(ensemble, shots=1000, seed=6, engine="oracle"))
    assert np.shares_memory(result.estimates.exact, result.run.ensemble.overlaps)
    report = replay(reference_counts(), d0)
    assert np.shares_memory(report.estimates.exact, d0.overlaps)
    assert np.shares_memory(report.reference, d0.overlaps)


@pytest.mark.parametrize("real", [5, 13])
def test_a_padded_runs_rows_are_gathered_at_their_ranks(real):
    ensemble = random_ensemble(np.random.default_rng(real), real)
    result = estimate_all_overlaps(decide(ensemble, shots=1000, seed=6, engine="oracle"))
    padded, est = result.run.ensemble, result.estimates
    assert padded.n > real and len(est) == real * (real - 1) // 2
    for (i, j), exact in zip(pair_labels(est), est.exact.tolist()):
        assert exact == padded.overlaps[builder.pair_rank(padded.n, i, j)]
        assert exact == pytest.approx(
            exact_overlap(ensemble.state(i), ensemble.state(j)), rel=0, abs=1e-14)


def test_replay_round_trips_run_counts(d0):
    result = estimate_all_overlaps(decide(d0, shots=4096, seed=13))
    report = replay(result.counts, d0)
    assert report.total_shots == 4096
    assert np.array_equal(report.estimates.pair_i, result.estimates.pair_i)
    assert np.array_equal(report.estimates.pair_j, result.estimates.pair_j)
    assert np.array_equal(report.estimates.estimate, result.estimates.estimate)
    assert np.array_equal(report.estimates.samples, result.estimates.samples)


def test_replay_recorded_run_against_published_estimates(d0):
    counts = reference_counts()
    report = replay(counts, d0, reference=reference_estimates(), tolerance=1e-3)
    assert len(report.estimates) == 28
    assert report.total_shots == 8192
    # most published estimates are reproduced from the published counts
    # bit-for-bit; the handful that are not get flagged, which is the point
    assert (report.flags == "ok").sum() >= 25
    assert report.flags[pair_labels(report.estimates).index((6, 7))] == "ok"


def test_replay_aligns_reference_with_pairs(d0):
    counts = reference_counts()
    # labels outside 1..8, even beyond int64, match no row; a reversed key
    # names the same pair
    reference = {(7, 6): 0.5, (0, 1): 0.5, (8, 9): 0.5, (99999999999999999999999, 3): 0.5}
    report = replay(counts, d0, reference=reference, tolerance=0.01)
    pairs = pair_labels(report.estimates)
    row = pairs.index((6, 7))
    assert report.reference[row] == 0.5
    assert np.isnan(np.delete(report.reference, row)).all()
    assert report.flags.tolist() == ["deviates" if p == (6, 7) else "ok" for p in pairs]
    columns = report.columns()
    assert list(columns)[-3:] == ["reference", "abs_diff", "flag"]
    assert columns["abs_diff"][row] == pytest.approx(abs(0.5 - report.estimates.estimate[row]))
    assert np.isnan(np.delete(columns["abs_diff"], row)).all()
    with pytest.raises(ValueError, match="both orders"):
        replay(counts, d0, reference={(6, 7): 0.5, (7, 6): 0.5})


@pytest.mark.parametrize("real", [8, 5])
def test_every_per_pair_array_is_a_vector_in_row_order(d0, real):
    # no (P, 2) labels and no matrix: each array field of PairEstimates and
    # ReplayReport has one entry per row
    ensemble = StateEnsemble(d0.amplitudes[:real])
    result = estimate_all_overlaps(decide(ensemble, shots=500, seed=2))
    reports = [replay(result.counts, ensemble),
               replay(result.counts, ensemble, reference={(1, 2): 0.5})]
    rows = real * (real - 1) // 2
    for record in [result.estimates, *reports, *(report.estimates for report in reports)]:
        arrays = [getattr(record, field.name) for field in fields(record)]
        arrays = [value for value in arrays if isinstance(value, np.ndarray)]
        assert arrays and all(value.shape == (rows,) for value in arrays), type(record)
    assert len(result.estimates) == rows
    assert list(result.estimates.columns()) == [field.name for field in fields(PairEstimates)]


def _zero_counts(plan):
    """One all-zero outcome line in the plan's standard layout."""
    labels = plan.measured_labels()
    return CountsTable(labels, plan.scheme, np.zeros((1, len(labels)), np.uint8), [1])


def test_replay_holds_no_second_flag_array():
    # 512 identical states: 130,816 pairs, all but 256 unsampled. Beyond the
    # arrays its report keeps, replay and columns() allocate less than one
    # float64 vector of the pairs
    ensemble = StateEnsemble([[1, 0]] * 512)
    counts = _zero_counts(layout_plan("new", 512, 1, "standard"))
    ensemble.overlaps  # computed once per ensemble, before the trace starts
    tracemalloc.start()
    try:
        report = replay(counts, ensemble)
        columns = report.columns()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 8 * len(report.flags)
    assert columns["abs_diff"] is report.abs_diff
    assert report.flags.dtype == np.dtype("<U9")
    assert (report.flags == "unsampled").sum() == len(report.flags) - 256


def test_replay_csv_formats_each_distinct_array_once(monkeypatch, d0, tmp_path):
    # with no reference, replay.csv's reference column is the exact array
    # itself; it is formatted once per row block, and the file is unchanged
    report = replay(reference_counts(), d0)
    columns = report.columns()
    assert columns["reference"] is columns["exact"]
    monkeypatch.setattr(fileio, "_CSV_BLOCK", 10)  # 28 rows: three blocks
    calls = []
    cells = fileio._cells
    monkeypatch.setattr(fileio, "_cells", lambda column: calls.append(1) or cells(column))
    fileio.write_csv(tmp_path / "replay.csv", columns)
    assert len(calls) == 3 * (len(columns) - 1)
    fileio.write_csv(tmp_path / "copies.csv", {k: np.array(v) for k, v in columns.items()})
    assert len(calls) == 3 * (2 * len(columns) - 1)
    assert (tmp_path / "replay.csv").read_bytes() == (tmp_path / "copies.csv").read_bytes()


def test_replay_size_mismatch(d0):
    counts = reference_counts()
    small = StateEnsemble(d0.amplitudes[:4])
    with pytest.raises(DataError, match="expected s1 s2 r1 r2 .* found s1 s2 s3 s4 r1"):
        replay(counts, small)


def test_destructive_final_variant_pipeline(d0):
    ensemble = StateEnsemble(d0.amplitudes[:4])
    result = estimate_all_overlaps(decide(
        ensemble, shots=200000, seed=19, final_variant="destructive"
    ))
    est = result.estimates
    assert len(est) == 6
    assert (np.abs(est.estimate - est.exact) <= 4 * est.stderr).all()


@pytest.mark.parametrize("n", [128, 256])
def test_oracle_identical_states_at_scale(n):
    # every overlap is exactly 1, so every verdict succeeds and every real
    # pair must be reached; sizes past 64 slots once overflowed a packed key
    ensemble = StateEnsemble([[1, 0]] * n)
    shots = 100_000
    result = estimate_all_overlaps(decide(ensemble, shots=shots, seed=3, engine="oracle"))
    assert result.run.engine == "oracle"
    est = result.estimates
    assert len(est) == n * (n - 1) // 2
    assert (est.samples > 0).all()
    assert est.samples.sum() == shots * n // 2
    assert (est.estimate == 1.0).all()


def test_san_destructive_pipeline_and_replay(d0):
    # the baseline scheme measures all n registers destructively but tests
    # only slot (1, 2); each verdict comes from that slot's two registers
    result = estimate_all_overlaps(decide(
        d0, "san", shots=200_000, seed=23, final_variant="destructive",
        engine="statevector",
    ))
    assert result.counts.labels == result.run.plan.measured_labels()
    est = result.estimates
    assert len(est) == 28
    assert (np.abs(est.estimate - est.exact) <= 4 * est.stderr).all()
    replayed = replay(result.counts, d0).estimates
    for column in ("pair_i", "pair_j", "estimate", "samples"):
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


def test_counts_table_refuses_what_a_cast_would_change():
    # each of these bits would cast to the row 01, and the count 2.7 to 2
    for bits in ([[256, 1]], np.array([[256, 1]]), [[0.7, 1.0]], [[np.nan, 1.0]]):
        with pytest.raises(ValueError, match="0/1"):
            CountsTable(("a", "b"), "new", bits, [1])
    for counts in ([2.7], [np.nan], [np.inf], [2.0**63]):
        with pytest.raises(ValueError, match="non-negative whole numbers"):
            CountsTable(("a", "b"), "new", [[0, 1]], counts)
    # float or bool 0/1 bits and whole float counts are what they say
    for bits in ([[0.0, 1.0]], np.array([[False, True]])):
        table = CountsTable(("a", "b"), "new", bits, [2.0])
        assert table.bits.tolist() == [[0, 1]] and table.counts.tolist() == [2]


def test_counts_table_refuses_a_total_past_the_int64_range():
    top = 2**63 - 1
    table = CountsTable(("a",), "new", [[0], [0]], [top - 5, 5])  # merged into one row
    assert table.counts.tolist() == [top] and table.total_shots == top
    # three times 2**63 - 1 wraps below 2**63 in uint64, so only an exact sum refuses it
    with pytest.raises(DataError, match="counts total more than 9223372036854775807 shots"):
        CountsTable(("a", "b"), "new", [[0, 0], [0, 1], [1, 0]], [top] * 3)


def test_run_validates_configuration(d0, monkeypatch):
    _no_run(monkeypatch)
    for kwargs, message in (
        ({"scheme": "old"}, "scheme"),
        ({"final_variant": "weak"}, "final variant"),
        ({"engine": "gpu"}, "engine"),
        ({"shots": 0}, "shots"),
        ({"seed": -1}, "seed"),
        ({"seed": 1 << 64}, "seed"),
    ):
        with pytest.raises(ValueError, match=message):
            decide(d0, **kwargs)


def test_run_refuses_shots_and_seeds_that_are_not_integers(d0, monkeypatch):
    # 1.5 was kept as the run's seed while both engines drew with seed 1,
    # and 100.5 shots failed inside numpy; both now fail before any plan
    _no_run(monkeypatch)
    monkeypatch.setattr(estimation, "layout_for", lambda *args: pytest.fail("planned"))
    for kwargs, message in (
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"shots": 100.5}, "shots must be an integer, got 100.5"),
        ({"shots": np.float64(64)}, "shots must be an integer, got "),
        ({"shots": np.True_}, "shots must be an integer, got "),
    ):
        with pytest.raises(ValueError, match=message):
            decide(d0, **kwargs)
    monkeypatch.undo()
    run = decide(d0, shots=np.int32(64), seed=np.uint64(3))
    assert (run.shots, run.seed) == (64, 3)


def test_destructive_verdict_is_parity_over_wide_registers():
    # with two qubits per register a verdict is the parity of two AND bits
    ensemble = random_ensemble(np.random.default_rng(5), 4, width=2)
    result = estimate_all_overlaps(decide(
        ensemble, shots=100_000, seed=29, final_variant="destructive",
        engine="statevector",
    ))
    est = result.estimates
    assert (np.abs(est.estimate - est.exact) <= 4 * est.stderr).all()


def _serial_oracle_rows(ensemble, plan, shots, seed):
    """The stream layout spelled out as one serial draw: shot i's ancilla
    outcome is the top d bits of word i of the Philox stream at counter 0,
    and its slot-s verdict is numpy's uniform from word i*S + s of the
    stream at counter 2**192, compared against p0 = (1 + overlap)/2."""
    d = plan.ancilla_count
    anc = np.random.Philox(key=seed).random_raw(shots) >> np.uint64(64 - d)
    words = np.random.Philox(key=seed, counter=1 << 192).random_raw((shots, len(plan.slots)))
    uniforms = (words >> np.uint64(11)) * 2.0**-53
    labels = decode(plan, index_bits(anc, d))
    first = labels[[a - 1 for a, _ in plan.slots]] - 1
    second = labels[[b - 1 for _, b in plan.slots]] - 1
    p0 = (overlap_matrix(ensemble)[first, second].T + 1.0) / 2.0
    return np.hstack([index_bits(anc, d), uniforms >= p0]).astype(np.uint8)


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so shards interleave finely."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("block", ["1", "7S", "all"])
@pytest.mark.parametrize("shards", [1, 2, 7])
def test_oracle_verdict_blocks_keep_the_draw(shards, block, monkeypatch, fast_switching):
    # any split into shards and verdict blocks of 1 row, 7 rows or all shots
    # gives the rows of one serial draw
    ensemble = random_ensemble(np.random.default_rng(16), 16)
    _, plan = layout_for(ensemble, "new", "standard")
    slots, shots = len(plan.slots), 2021
    monkeypatch.setattr(estimation, "_SHARDS", shards)
    monkeypatch.setattr(estimation, "_MIN_SHARD_ROWS", 1)
    words = {"1": 1, "7S": 7 * slots, "all": shots * slots}[block]
    monkeypatch.setattr(estimation, "_VERDICT_BLOCK", words)
    drawn, _ = oracle_sample(decide(ensemble, shots=shots, seed=4, engine="oracle"))
    serial = _serial_oracle_rows(ensemble, plan, shots, seed=4)
    expected = CountsTable(drawn.labels, "new", serial, np.ones(shots, dtype=np.int64))
    assert np.array_equal(drawn.bits, expected.bits)
    assert np.array_equal(drawn.counts, expected.counts)


def test_verdict_threshold_matches_the_float_comparison():
    rng = np.random.default_rng(21)
    edges = [0.0, 1.0, 0.5, 2.0**-53, 1.0 - 2.0**-53, np.nextafter(1.0, 2.0)]
    overlaps = np.concatenate([rng.random(400), edges])
    thresholds = sim.draw_thresholds((overlaps + 1.0) / 2.0)
    p0 = (overlaps + 1.0) / 2.0
    # words within two steps of every threshold, then uniformly random ones
    steps = thresholds[:, None].astype(np.int64) + np.arange(-2, 3)
    near = np.clip(steps, 0, 2**53 - 1).astype(np.uint64) << np.uint64(11)
    near |= rng.integers(0, 1 << 11, size=near.shape).astype(np.uint64)
    far = np.random.Philox(key=21).random_raw((len(overlaps), 64))
    words = np.hstack([near, far, np.full((len(overlaps), 1), 2**64 - 1, np.uint64)])
    integer = (words >> np.uint64(11)) >= thresholds[:, None]
    floats = (words >> np.uint64(11)) * 2.0**-53 >= p0[:, None]
    assert np.array_equal(integer, floats)
    # p0 = 1 sits above every word, so identical states never fail
    assert thresholds[overlaps == 1.0].tolist() == [2**53]
    assert not integer[overlaps >= 1.0].any()
    # numpy's uniform double from a raw word is the one compared above
    raw = np.random.Philox(key=21).random_raw(8)
    uniforms = np.random.Generator(np.random.Philox(key=21)).random(8)
    assert np.array_equal(uniforms, (raw >> np.uint64(11)) * 2.0**-53)


def test_verdict_word_at_its_threshold_fails():
    # random() >= p0 holds at equality: a shot's first verdict word, shifted,
    # equal to the threshold gives verdict 1, and one below it verdict 0
    _, plan = layout_for(StateEnsemble([[1, 0]] * 4), "new", "standard")
    first = np.random.Philox(key=4, counter=1 << 192).random_raw(1)[0] >> np.uint64(11)
    outcomes = np.array([2], dtype=np.uint64)
    bits = index_bits(outcomes, plan.ancilla_count)
    pairs = builder.pair_table(plan, bits)
    verdicts = []
    for threshold in (first, first + np.uint64(1)):
        rows = np.empty((1, 4), dtype=np.uint8)
        thresholds = np.full(6, threshold, dtype=np.uint64)  # one per pair rank
        totals = estimation._oracle_rows(rows, outcomes, outcomes, bits, pairs, thresholds, 4, 0, 1)
        verdicts.append(int(rows[0, 2]))
        # each slot counts the shot at its pair's verdict-0 or verdict-1 entry
        expected = np.zeros(2 * 6, dtype=np.int64)
        np.add.at(expected, pairs[0] + 6 * rows[0, 2:], 1)
        assert np.array_equal(totals, expected)
    assert rows[0, :2].tolist() == [1, 0]  # outcome 2's ancilla bits
    assert verdicts == [1, 0]


@pytest.mark.parametrize("shards, block", [(1, 1 << 15), (2, 1 << 15), (2, 7)])
def test_an_oracle_run_decodes_each_drawn_outcome_once(shards, block, monkeypatch):
    # the sampler's table is the tally's: every distinct ancilla outcome is
    # decoded once, in outcome blocks, whatever the shards
    monkeypatch.setattr(estimation, "_SHARDS", shards)
    monkeypatch.setattr(estimation, "_MIN_SHARD_ROWS", 1)
    monkeypatch.setattr(builder, "_OUTCOME_BLOCK", block)
    columns = []

    def counted(plan, ancilla_bits):
        columns.append(len(ancilla_bits))
        return decode(plan, ancilla_bits)

    monkeypatch.setattr(builder, "decode", counted)
    ensemble = random_ensemble(np.random.default_rng(9), 16)
    result = estimate_all_overlaps(decide(ensemble, shots=500, seed=9, engine="oracle"))
    d = result.run.plan.ancilla_count
    distinct = len(np.unique(result.counts.bits[:, :d], axis=0))
    assert sum(columns) == distinct
    assert len(columns) == -(-distinct // block)


class _RecordingNumpy:
    """numpy, except that ``add.at`` records (address dtype, value dtype,
    accumulator dtype, address ndim, value is an array) before it adds; a
    Python int value records ``int``."""

    def __init__(self, calls):
        self.add = _RecordingAdd(calls)

    def __getattr__(self, name):
        return getattr(np, name)


class _RecordingAdd:
    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(np.add, name)

    def at(self, target, address, values):
        value = int if type(values) is int else np.asarray(values).dtype
        where = np.asarray(address)
        self.calls.append((where.dtype, value, target.dtype, where.ndim, np.ndim(values) > 0))
        np.add.at(target, address, values)


def test_every_scatter_add_takes_numpys_fast_path(monkeypatch):
    # np.add.at is fast only with intp addresses and values of the
    # accumulator's dtype, where a Python int counts for int64 alone: uint8
    # values or a Python int into int32 cost 35-45 times as much per element.
    # An array of values also needs flat addresses: with 2-D addresses and
    # int64 values it costs 4 times as much per element (numpy 2.4)
    monkeypatch.setattr(estimation, "_SHARDS", 2)
    monkeypatch.setattr(estimation, "_MIN_SHARD_ROWS", 1)
    oracle, replayed = [], []
    ensemble = random_ensemble(np.random.default_rng(12), 16)
    run = decide(ensemble, shots=3000, seed=12, engine="oracle")
    monkeypatch.setattr(estimation, "np", _RecordingNumpy(oracle))
    result = estimate_all_overlaps(run)
    monkeypatch.setattr(estimation, "np", _RecordingNumpy(replayed))
    replay(result.counts, ensemble)
    assert oracle and replayed
    for address, value, target, ndim, array in oracle + replayed:
        assert address == np.intp
        assert value == target or (value is int and target == np.int64)
        assert ndim == 1 or not array


def test_the_pair_table_and_thresholds_are_freed_before_the_shards_merge(monkeypatch):
    # the merge adds one accumulator of 2 * n(n-1)/2 counts per shard; the
    # sampler's pair table and thresholds must be gone by then, or they set
    # the run's peak. The merge pops each shard's accumulator off the list
    # that _in_shards returns, so that list checks them at every pop
    monkeypatch.setattr(estimation, "_SHARDS", 2)
    monkeypatch.setattr(estimation, "_MIN_SHARD_ROWS", 1)
    made, merged = {}, []

    def keeping(name, function):
        def wrapper(*args):
            result = function(*args)
            made[name] = weakref.ref(result)
            return result
        return wrapper

    class Merging(list):
        def pop(self, *args):
            assert made["pair_table"]() is None and made["draw_thresholds"]() is None
            merged.append(len(self))
            return super().pop(*args)

    in_shards = estimation._in_shards
    monkeypatch.setattr(estimation, "pair_table", keeping("pair_table", estimation.pair_table))
    monkeypatch.setattr(
        estimation, "draw_thresholds", keeping("draw_thresholds", estimation.draw_thresholds))
    monkeypatch.setattr(estimation, "_in_shards", lambda *args: Merging(in_shards(*args)))
    ensemble = random_ensemble(np.random.default_rng(16), 16)
    result = estimate_all_overlaps(decide(ensemble, shots=3000, seed=16, engine="oracle"))
    assert sorted(made) == ["draw_thresholds", "pair_table"]
    assert merged == [2, 1]  # both shards' accumulators were popped
    assert result.estimates.samples.sum() == 3000 * 8


def test_orthogonal_states_fail_half_the_verdicts():
    # four mutually orthogonal two-qubit states: p0 = 1/2 in every slot
    ensemble = StateEnsemble(np.eye(4))
    run = decide(ensemble, shots=40000, seed=8, engine="oracle")
    (counts, _), plan = oracle_sample(run), run.plan
    verdicts = counts.bits[:, plan.ancilla_count :]
    failed = (verdicts * counts.counts[:, None]).sum() / (2 * 40000)
    assert abs(failed - 0.5) < 5 * 0.5 / np.sqrt(2 * 40000)


def test_a_failing_shard_raises_after_every_shard_ran(monkeypatch):
    monkeypatch.setattr(estimation, "_SHARDS", 3)
    monkeypatch.setattr(estimation, "_MIN_SHARD_ROWS", 1)
    ran = []

    def work(lo, hi):
        ran.append((lo, hi))
        if lo == 1:
            raise MemoryError("shard 1")

    with pytest.raises(MemoryError, match="shard 1"):
        estimation._in_shards(3, work)
    assert sorted(ran) == [(0, 1), (1, 2), (2, 3)]


def _row_by_row_tally(plan, bits, counts):
    """``tally`` one raw row at a time: the row's ancilla bits decoded alone,
    its count added to t0 or t1 of each slot's pair (min, max), at that
    pair's row in combinations order."""
    d = plan.ancilla_count
    column = {q: c for c, (q, _) in enumerate(plan.measured)}
    rank = {p: r for r, p in enumerate(itertools.combinations(range(1, plan.n + 1), 2))}
    t = np.zeros((2, len(rank)), dtype=np.int64)
    for row, count in zip(bits, counts):
        labels = decode(plan, row[None, :d])[:, 0]
        for s, (ra, rb) in enumerate(plan.slots):
            if plan.final_variant == "standard":
                verdict = row[d + s]
            else:
                data = [column[q] for r in (ra, rb) for q in plan.register_qubits(r)]
                verdict = destructive_decode(row[None, data], plan.width)[0]
            t[verdict, rank[tuple(sorted((labels[ra - 1], labels[rb - 1])))]] += count
    return t[0], t[1]


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("final", ["standard", "destructive"])
@pytest.mark.parametrize("scheme", ["new", "san"])
def test_tally_matches_a_row_by_row_reference(scheme, final, parts):
    # the rows are dealt round-robin into `parts` tables, so an ancilla group
    # is split across tables, and their tallies summed: tally is additive
    rng = np.random.default_rng(41)
    for n, width in itertools.product((4, 8, 16, 32), (1, 2)):
        plan = layout_plan(scheme, n, width, final)
        labels = plan.measured_labels()
        # 30 rows under 5 ancilla prefixes, so each group holds several rows
        prefixes = rng.integers(0, 2, size=(5, plan.ancilla_count))
        bits = rng.integers(0, 2, size=(30, len(labels)), dtype=np.uint8)
        bits[:, : plan.ancilla_count] = prefixes[rng.integers(0, 5, size=30)]
        counts = rng.integers(1, 6, size=30)
        tallies = [
            tally(CountsTable(labels, scheme, bits[k::parts], counts[k::parts]), plan)
            for k in range(parts)
        ]
        t0 = sum(t for t, _ in tallies)
        t1 = sum(t for _, t in tallies)
        r0, r1 = _row_by_row_tally(plan, bits, counts)
        assert np.array_equal(t0, r0), (n, width)
        assert np.array_equal(t1, r1), (n, width)
