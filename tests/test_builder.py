from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from multiswap import builder
from multiswap.builder import (
    build_network,
    build_u4,
    build_un,
    decode,
    derive_permutation_table,
    initial_state,
    pad_inputs,
    pair_coverage_map,
)
from multiswap.circuits import count_resources
from multiswap.fixtures import reference_table_rows
from multiswap.san import build_san_network
from multiswap.sim import measure_probabilities, project_qubits, run_statevector
from multiswap.states import StateEnsemble, exact_overlap, tensor_product

from conftest import random_ensemble


def test_padding_noop_at_power_of_two(d0):
    padded, mask = pad_inputs(d0)
    assert padded is d0
    assert mask == ()


def test_padding_to_next_power_of_two(d0):
    five = StateEnsemble(d0.states[:5])
    padded, mask = pad_inputs(five)
    assert padded.n == 8
    assert mask == (6, 7, 8)
    assert np.allclose(padded.state(6).amplitudes, [1, 0])


def test_padding_minimum_is_four(d0):
    two = StateEnsemble(d0.states[:2])
    padded, mask = pad_inputs(two)
    assert padded.n == 4
    assert mask == (3, 4)


def test_network_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="pad first"):
        build_network(6)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_resource_closed_forms(n):
    k = n.bit_length() - 1
    profile = count_resources(build_network(n)[0])
    assert profile.cswap_count == (k - 1) * 2 ** (k - 1)
    assert profile.ancilla_count == 2 * (k - 1)


def test_cswap_recursion_oracle():
    # independent oracle: unroll c(n) = 2 c(n/2) + n/2 with c(4) = 2
    expected = {4: 2}
    for n in (8, 16, 32, 64):
        expected[n] = 2 * expected[n // 2] + n // 2
    for n, value in expected.items():
        assert count_resources(build_network(n)[0]).cswap_count == value


def test_u4_statevector_routes_per_outcome(d0):
    # force each ancilla outcome with X gates is unnecessary: project instead
    ensemble = StateEnsemble(d0.states[:4])
    circuit, plan = build_u4()
    out = run_statevector(circuit, initial_state(ensemble, plan))
    table = derive_permutation_table(plan)
    for outcome, row in table.rows.items():
        prob, rest = project_qubits(out, range(plan.ancilla_count), outcome)
        assert prob == pytest.approx(0.25, abs=1e-10)
        expected = tensor_product([ensemble.state(i) for i in row])
        assert exact_overlap(rest, expected) == pytest.approx(1.0, abs=1e-10)


def test_u4_table_matches_reference_exactly():
    _, plan = build_u4()
    table = derive_permutation_table(plan)
    assert table.rows == reference_table_rows("new_n4")


def test_u4_slot_pairs(d0):
    _, plan = build_u4()
    table = derive_permutation_table(plan)
    assert table.slot_map["00"] == ((1, 2), (3, 4))
    assert table.slot_map["01"] == ((1, 3), (2, 4))
    assert table.slot_map["10"] == ((1, 4), (3, 2))
    assert table.slot_map["11"] == ((1, 4), (2, 3))


def test_u8_table_matches_reference_except_flagged_row():
    _, plan = build_network(8)
    derived = derive_permutation_table(plan).rows
    reference = reference_table_rows("new_n8")
    mismatches = [o for o in reference if derived[o] != reference[o]]
    # the reference prints 0011 as a duplicate of 0010; the circuit disagrees
    # there and only there, and even that row has the same unordered pairs
    assert mismatches == ["0011"]
    assert derived["0011"] == (1, 4, 2, 3, 5, 8, 6, 7)
    ref_pairs = {frozenset(p) for p in zip(*[iter(reference["0011"])] * 2)}
    drv_pairs = {frozenset(p) for p in zip(*[iter(derived["0011"])] * 2)}
    assert ref_pairs == drv_pairs


def test_u8_slot_pair_multisets_match_reference_per_outcome():
    _, plan = build_network(8)
    table = derive_permutation_table(plan)
    reference = reference_table_rows("new_n8")
    for outcome, ref_row in reference.items():
        ref_pairs = Counter(frozenset(p) for p in zip(*[iter(ref_row)] * 2))
        drv_pairs = Counter(frozenset(p) for p in table.slot_map[outcome])
        assert drv_pairs == ref_pairs, outcome


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_rows_are_bijections_fixing_register_one(n):
    _, plan = build_network(n)
    table = derive_permutation_table(plan)
    assert len(table.rows) == 2 ** (2 * (plan.k - 1))
    for row in table.rows.values():
        assert sorted(row) == list(range(1, n + 1))
        assert row[0] == 1


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_pair_coverage_complete(n):
    _, plan = build_network(n)
    coverage = pair_coverage_map(derive_permutation_table(plan))
    assert len(coverage) == n * (n - 1) // 2
    assert all(coverage.values())


def test_identity_outcome_and_worked_slot_example():
    _, plan = build_network(8)
    table = derive_permutation_table(plan)
    assert table.rows["0000"] == (1, 2, 3, 4, 5, 6, 7, 8)
    # the recorded run pools these two outcomes for pair (6,7) at slot 4
    assert table.slot_map["0010"][3] == (7, 6)
    assert table.slot_map["0011"][3] == (6, 7)


def test_padded_coverage_excludes_pad_labels(d0):
    three = StateEnsemble(d0.states[:3])
    padded, mask = pad_inputs(three)
    _, plan = build_network(padded.n)
    coverage = pair_coverage_map(derive_permutation_table(plan), mask)
    assert sorted(coverage) == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("n", [4, 8])
def test_statevector_agrees_with_decoder_on_random_ensembles(n):
    rng = np.random.default_rng(50 + n)
    circuit, plan = build_network(n)
    table = derive_permutation_table(plan)
    for _ in range(3):
        ensemble = random_ensemble(rng, n)
        out = run_statevector(circuit, initial_state(ensemble, plan))
        for outcome, row in table.rows.items():
            prob, rest = project_qubits(out, range(plan.ancilla_count), outcome)
            assert prob == pytest.approx(2.0 ** -plan.ancilla_count, abs=1e-10)
            expected = tensor_product([ensemble.state(i) for i in row])
            assert exact_overlap(rest, expected) >= 1 - 1e-10


def test_ancilla_marginal_is_uniform(d0):
    circuit, plan = build_network(8)
    probs = measure_probabilities(circuit, initial_state(d0, plan))
    assert len(probs) == 16
    assert all(p == pytest.approx(1 / 16, abs=1e-12) for p in probs.values())


def test_full_circuit_layout_counts(d0):
    circuit, plan = build_un(8, 1, "standard")
    assert circuit.qubit_count == 16
    assert plan.measured_labels() == (
        "s1", "s2", "s3", "s4", "r1", "r2", "r3", "r4",
    )
    profile = count_resources(circuit)
    assert profile.cswap_count == 8 + 4  # network plus one per final test
    assert profile.ancilla_count == 4

    destructive, plan_d = build_un(8, 1, "destructive")
    assert destructive.qubit_count == 12
    assert count_resources(destructive).cswap_count == 8
    assert plan_d.measured_labels()[4:] == tuple(f"q{i}" for i in range(1, 9))


def test_width_two_registers_expand_cswaps():
    circuit, plan = build_network(4, width=2)
    profile = count_resources(circuit)
    assert plan.register_swap_count == 2
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
    "network,n",
    [(build_network, 2**k) for k in range(2, 9)]
    + [(build_san_network, 2**k) for k in range(2, 7)],
)
def test_decode_matches_per_outcome_replay(network, n):
    plan = network(n)[1]
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
    _, plan = build_network(8)
    with pytest.raises(ValueError, match="4 columns"):
        decode(plan, np.zeros((2, 3)))
    broken = replace(plan, controlled_swaps=((0, 1, 2),))
    with pytest.raises(AssertionError, match="register 1 moved"):
        decode(broken, np.ones((1, 4)))


def test_permutation_table_refuses_tables_over_the_limit(monkeypatch):
    _, plan = build_network(8)  # 2^4 outcomes x 8 registers = 128 labels
    monkeypatch.setattr(builder, "MAX_TABLE_ENTRIES", 128)
    assert len(derive_permutation_table(plan).rows) == 16
    monkeypatch.setattr(builder, "MAX_TABLE_ENTRIES", 127)
    with pytest.raises(ValueError, match=r"2\^4 outcomes x 8 registers \(128 entries\)"):
        derive_permutation_table(plan)
