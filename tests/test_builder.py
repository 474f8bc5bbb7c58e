import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from multiswap import builder
from multiswap.builder import (
    assemble,
    decode,
    decode_all,
    input_factors,
    layout_plan,
    pad_inputs,
    pair_coverage,
    pair_table,
)
from multiswap.circuits import count_resources, index_bits
from multiswap.sim import measured_distribution, project_qubits, run_statevector
from multiswap.states import StateEnsemble, exact_overlap, tensor_product

from conftest import random_ensemble, real_pair_coverage, reference_labels, slot_pairs


def test_padding_noop_at_power_of_two(d0):
    assert pad_inputs(d0) is d0


def test_padding_to_next_power_of_two(d0):
    five = StateEnsemble(d0.amplitudes[:5])
    padded = pad_inputs(five)
    assert padded.n == 8
    assert np.array_equal(padded.amplitudes[:5], five.amplitudes)
    assert np.array_equal(padded.amplitudes[5:], [[1, 0]] * 3)


def test_padding_minimum_is_four(d0):
    two = StateEnsemble(d0.amplitudes[:2])
    padded = pad_inputs(two)
    assert padded.n == 4
    assert np.array_equal(padded.amplitudes[2:], [[1, 0]] * 2)


def test_network_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="pad first"):
        layout_plan("new", 6)


@pytest.mark.parametrize("args, message", [
    (("bogus", 8), "unknown scheme 'bogus'"),
    (("san", 8, 0), "width must be >= 1, got 0"),
    (("new", 8, 1, "bogus"), "unknown final variant 'bogus'"),
])
def test_layout_plan_rejects_a_bad_configuration(args, message):
    with pytest.raises(ValueError, match=message):
        layout_plan(*args)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_resource_closed_forms(n):
    k = n.bit_length() - 1
    profile = count_resources(assemble(layout_plan("new", n)))
    assert profile.cswap_count == (k - 1) * 2 ** (k - 1)
    assert profile.ancilla_count == 2 * (k - 1)


def test_cswap_recursion_oracle():
    # independent oracle: unroll c(n) = 2 c(n/2) + n/2 with c(4) = 2
    expected = {4: 2}
    for n in (8, 16, 32, 64):
        expected[n] = 2 * expected[n // 2] + n // 2
    for n, value in expected.items():
        assert count_resources(assemble(layout_plan("new", n))).cswap_count == value


def test_u4_statevector_routes_per_outcome(d0):
    # force each ancilla outcome with X gates is unnecessary: project instead
    ensemble = StateEnsemble(d0.amplitudes[:4])
    plan = layout_plan("new", 4)
    circuit = assemble(plan)
    out = run_statevector(circuit, input_factors(ensemble, plan))
    d = plan.ancilla_count
    for outcome, row in zip(index_bits(np.arange(1 << d), d), decode_all(plan).T.tolist()):
        prob, rest = project_qubits(out, range(d), outcome)
        assert prob == pytest.approx(0.25, abs=1e-10)
        expected = tensor_product([ensemble.state(i) for i in row])
        assert exact_overlap(rest, expected) == pytest.approx(1.0, abs=1e-10)


def test_u4_table_matches_reference_exactly():
    plan = layout_plan("new", 4)
    assert np.array_equal(decode_all(plan), reference_labels("new_n4"))


def test_u4_slot_pairs(d0):
    plan = layout_plan("new", 4)
    pairs = slot_pairs(plan, decode_all(plan))
    assert pairs[0b00].tolist() == [[1, 2], [3, 4]]
    assert pairs[0b01].tolist() == [[1, 3], [2, 4]]
    assert pairs[0b10].tolist() == [[1, 4], [3, 2]]
    assert pairs[0b11].tolist() == [[1, 4], [2, 3]]


def test_u8_table_matches_reference_except_flagged_row():
    plan = layout_plan("new", 8)
    derived = decode_all(plan)
    reference = reference_labels("new_n8")
    mismatches = np.flatnonzero((derived != reference).any(axis=0)).tolist()
    # the reference prints 0011 as a duplicate of 0010; the circuit disagrees
    # there and only there, and even that row has the same unordered pairs
    assert mismatches == [0b0011]
    assert derived[:, 0b0011].tolist() == [1, 4, 2, 3, 5, 8, 6, 7]
    ref_pairs = {frozenset(p) for p in reference[:, 0b0011].reshape(-1, 2).tolist()}
    drv_pairs = {frozenset(p) for p in derived[:, 0b0011].reshape(-1, 2).tolist()}
    assert ref_pairs == drv_pairs


def test_u8_slot_pair_multisets_match_reference_per_outcome():
    plan = layout_plan("new", 8)
    derived = slot_pairs(plan, decode_all(plan))
    reference = reference_labels("new_n8")
    for outcome, ref_row in enumerate(reference.T):
        ref_pairs = Counter(frozenset(p) for p in ref_row.reshape(-1, 2).tolist())
        drv_pairs = Counter(frozenset(p) for p in derived[outcome].tolist())
        assert drv_pairs == ref_pairs, outcome


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_rows_are_bijections_fixing_register_one(n):
    plan = layout_plan("new", n)
    labels = decode_all(plan)
    k = n.bit_length() - 1
    assert labels.shape == (n, 2 ** (2 * (k - 1)))
    assert (np.sort(labels, axis=0) == np.arange(1, n + 1)[:, None]).all()
    assert (labels[0] == 1).all()


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
def test_pair_coverage_complete(n):
    plan = layout_plan("new", n)
    _, coverage = real_pair_coverage(plan)
    assert len(coverage) == n * (n - 1) // 2
    assert (coverage > 0).all()
    # every (outcome, slot) entry tests one pair: (n/2) * 2**d in all
    assert pair_coverage(plan).sum() == (n // 2) << plan.ancilla_count


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_san_pair_coverage_totals_one_pair_per_outcome(n):
    plan = layout_plan("san", n)
    assert pair_coverage(plan).sum() == 1 << plan.ancilla_count


def test_identity_outcome_and_worked_slot_example():
    plan = layout_plan("new", 8)
    labels = decode_all(plan)
    assert labels[:, 0b0000].tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    # the recorded run pools these two outcomes for pair (6,7) at slot 4
    pairs = slot_pairs(plan, labels)
    assert pairs[0b0010, 3].tolist() == [7, 6]
    assert pairs[0b0011, 3].tolist() == [6, 7]


@pytest.mark.parametrize("n, dtype", [
    (4, np.uint8), (256, np.uint16), (512, np.uint32), (65_536, np.uint32),
    (92_682, np.uint32),  # the last n whose n(n-1)/2 - 1 fits uint32
    (92_683, np.uint64),
])
def test_slot_pairs_rank_at_every_dtype_boundary(n, dtype):
    # synthetic labels on a bare plan with two slots, no decode: column k puts
    # one pair in slot 1 and the same pair reversed in slot 2
    plan = builder.LayoutPlan("new", n, 1, 0, (), ((1, 2), (3, 4)))
    pairs = [(1, 2), (1, n), (n - 1, n)]
    pairs += [(b, a) for a, b in pairs]
    labels = np.array([[a, b, b, a] for a, b in pairs], dtype=np.min_scalar_type(n)).T
    ranks = builder.slot_pairs(plan, labels)
    assert ranks.dtype == dtype and ranks.shape == (len(pairs), 2)
    for (a, b), row in zip(pairs, ranks.tolist()):
        i, j = min(a, b), max(a, b)
        # pairs (1, *) to (i - 1, *) come first in combinations order, n - a for each a
        expected = sum(n - a for a in range(1, i)) + j - i - 1
        assert row == [expected, expected], (i, j)
        assert builder.pair_rank(n, i, j) == expected
        if n <= 512:
            assert expected == list(itertools.combinations(range(1, n + 1), 2)).index((i, j))


def test_padded_coverage_excludes_pad_labels(d0):
    three = StateEnsemble(d0.amplitudes[:3])
    plan = layout_plan("new", pad_inputs(three).n)
    pairs, coverage = real_pair_coverage(plan, three.n)
    assert pairs.tolist() == [[1, 2], [1, 3], [2, 3]]
    assert (coverage > 0).all()


@pytest.mark.parametrize("n", [4, 8])
def test_statevector_agrees_with_decoder_on_random_ensembles(n):
    rng = np.random.default_rng(50 + n)
    plan = layout_plan("new", n)
    circuit = assemble(plan)
    d = plan.ancilla_count
    rows = decode_all(plan).T.tolist()
    for _ in range(3):
        ensemble = random_ensemble(rng, n)
        out = run_statevector(circuit, input_factors(ensemble, plan))
        for outcome, row in zip(index_bits(np.arange(1 << d), d), rows):
            prob, rest = project_qubits(out, range(d), outcome)
            assert prob == pytest.approx(2.0 ** -d, abs=1e-10)
            expected = tensor_product([ensemble.state(i) for i in row])
            assert exact_overlap(rest, expected) >= 1 - 1e-10


def test_ancilla_marginal_is_uniform(d0):
    plan = layout_plan("new", 8)
    circuit = assemble(plan)
    _, probs = measured_distribution(circuit, input_factors(d0, plan))
    assert len(probs) == 16
    assert probs == pytest.approx(np.full(16, 1 / 16), abs=1e-12)


def test_full_circuit_layout_counts(d0):
    plan = layout_plan("new", 8, 1, "standard")
    circuit = assemble(plan)
    assert circuit.qubit_count == 16
    assert plan.measured_labels() == (
        "s1", "s2", "s3", "s4", "r1", "r2", "r3", "r4",
    )
    profile = count_resources(circuit)
    assert profile.cswap_count == 8 + 4  # network plus one per final test
    assert profile.ancilla_count == 4

    plan_d = layout_plan("new", 8, 1, "destructive")
    destructive = assemble(plan_d)
    assert destructive.qubit_count == 12
    assert count_resources(destructive).cswap_count == 8
    assert plan_d.measured_labels()[4:] == tuple(f"q{i}" for i in range(1, 9))


def test_width_two_registers_expand_cswaps():
    plan = layout_plan("new", 4, width=2)
    circuit = assemble(plan)
    profile = count_resources(circuit)
    assert len(plan.controlled_swaps) == 2
    assert profile.cswap_count == 4  # two register swaps, two qubits each
    assert plan.register_qubits(1) == range(2, 4)


def test_group_partition_and_rules():
    from multiswap.builder import four_groups, rule_swaps

    groups = four_groups(range(1, 9))
    assert groups == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert rule_swaps("rule1", groups) == [(3, 5), (4, 6)]
    assert rule_swaps("rule2", groups) == [(3, 7), (4, 8)]
    with pytest.raises(ValueError, match="multiple of four"):
        four_groups(range(3))
    with pytest.raises(ValueError, match="unknown swap rule"):
        rule_swaps("rule3", groups)


def _replay_outcome(plan, outcome_bits) -> list[int]:
    """Reference decoder: swap labels per controlled swap, one outcome at a time."""
    labels = list(range(1, plan.n + 1))
    for anc, ra, rb in plan.controlled_swaps:
        if outcome_bits[anc]:
            labels[ra - 1], labels[rb - 1] = labels[rb - 1], labels[ra - 1]
    return labels


@pytest.mark.parametrize(
    "scheme,n",
    [("new", 2**k) for k in range(2, 9)] + [("san", 2**k) for k in range(2, 7)],
)
def test_decode_matches_per_outcome_replay(scheme, n):
    plan = layout_plan(scheme, n)
    d = plan.ancilla_count
    if d <= 8:
        outcomes = (np.arange(1 << d)[:, None] >> np.arange(d - 1, -1, -1)) & 1
    else:  # every outcome is too many for the pure-Python reference
        rng = np.random.default_rng(n + d)
        outcomes = np.vstack([rng.integers(0, 2, size=(200, d)), np.ones((1, d), int)])
    labels = decode(plan, outcomes)
    assert labels.shape == (n, len(outcomes))
    for column, bits in zip(labels.T.tolist(), outcomes.tolist()):
        assert column == _replay_outcome(plan, bits)


def test_decode_rejects_bad_input_and_a_moved_register_one():
    plan = layout_plan("new", 8)
    with pytest.raises(ValueError, match="4 columns"):
        decode(plan, np.zeros((2, 3)))
    broken = replace(plan, controlled_swaps=((0, 1, 2),))
    with pytest.raises(AssertionError, match="register 1 moved"):
        decode(broken, np.ones((1, 4)))


def test_permutation_table_refuses_tables_over_the_limit(monkeypatch):
    plan = layout_plan("new", 8)  # 2^4 outcomes x 8 registers = 128 labels
    monkeypatch.setattr(builder, "MAX_TABLE_ENTRIES", 128)
    assert decode_all(plan).shape == (8, 16)
    monkeypatch.setattr(builder, "MAX_TABLE_ENTRIES", 127)
    with pytest.raises(ValueError, match=r"2\^4 outcomes x 8 registers \(128 entries\)"):
        decode_all(plan)
    with pytest.raises(ValueError, match="exceeds the limit"):
        pair_coverage(plan)


@pytest.mark.parametrize(
    "scheme,n",
    [("new", 2**k) for k in range(2, 6)] + [("san", 2**k) for k in range(2, 5)],
)
def test_pair_coverage_counts_every_outcome_and_slot(scheme, n):
    plan = layout_plan(scheme, n)
    d = plan.ancilla_count
    rank = {pair: r for r, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
    expected = np.zeros(len(rank), dtype=np.int64)
    for bits in index_bits(np.arange(1 << d), d).tolist():
        labels = _replay_outcome(plan, bits)
        for a, b in plan.slots:
            expected[rank[tuple(sorted((labels[a - 1], labels[b - 1])))]] += 1
    coverage = pair_coverage(plan)
    assert coverage.dtype == np.int64
    assert np.array_equal(coverage, expected)
    # n/2 slots per outcome in the new scheme, one in the baseline
    assert coverage.sum() == (n // 2 if scheme == "new" else 1) << d


def test_pair_table_holds_one_decode_block_at_a_time(monkeypatch):
    # 2^13 outcomes of n=1024 in two 2^12-outcome decode blocks of 8 MiB:
    # each block is freed before the next is decoded
    plan = layout_plan("new", 1024)
    d = plan.ancilla_count
    rng = np.random.default_rng(4)
    bits = index_bits(rng.integers(0, 1 << d, 1 << 13, dtype=np.uint64), d)
    whole = pair_table(plan, bits)  # one block: the default holds 2^15 outcomes
    monkeypatch.setattr(builder, "_OUTCOME_BLOCK", 1 << 12)
    block = decode(plan, bits[: 1 << 12]).nbytes
    tracemalloc.start()
    try:
        table = pair_table(plan, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table, whole)
    assert peak < table.nbytes + 1.5 * block
