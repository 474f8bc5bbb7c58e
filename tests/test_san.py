import itertools
from dataclasses import replace

import numpy as np
import pytest

from multiswap.builder import U4_BLOCK, assemble, decode, decode_all, layout_plan, pair_coverage
from multiswap.circuits import count_resources, index_bits
from multiswap.fixtures import reference_table_rows

from conftest import real_pair_coverage


def block_rows(plan) -> dict[str, tuple[int, ...]]:
    """The four-register block's outcome table: the register contents
    ``decode`` gives for each of the 8 ancilla outcomes, keyed by bitstring."""
    labels = decode(plan, index_bits(np.arange(8), 3))
    return {format(r, "03b"): tuple(labels[:, r].tolist()) for r in range(8)}


def test_block_anchor_rows():
    rows = block_rows(layout_plan("san", 4))
    assert rows["000"] == (1, 2, 3, 4)
    assert rows["001"] == (1, 3, 2, 4)  # third ancilla alone
    assert rows["011"] == (4, 3, 2, 1)


def test_block_matches_reference_in_seven_of_eight_cells():
    rows = block_rows(layout_plan("san", 4))
    reference = reference_table_rows("san_n4")
    mismatches = [o for o in reference if rows[o] != reference[o]]
    assert mismatches == ["010"]
    assert rows["010"] == (4, 2, 3, 1)


def test_exhaustive_search_confirms_wiring_is_optimal():
    # the reference table is internally inconsistent; no one-swap-per-ancilla
    # wiring reproduces all 8 rows, and ours achieves the maximum 7. Every
    # assignment of a position pair to each ancilla, in every gate order, is
    # decoded as a plan of its own and scored by the reference rows it hits.
    reference = reference_table_rows("san_n4")
    plan = layout_plan("san", 4)
    best_score, best = -1, []
    for targets in itertools.product(itertools.combinations(range(1, 5), 2), repeat=3):
        for order in itertools.permutations(range(3)):
            wiring = tuple((offset, targets[offset]) for offset in order)
            swaps = tuple((offset, a, b) for offset, (a, b) in wiring)
            rows = block_rows(replace(plan, controlled_swaps=swaps))
            score = sum(rows[o] == reference[o] for o in rows)
            if score > best_score:
                best_score, best = score, [wiring]
            elif score == best_score:
                best.append(wiring)
    assert best_score == 7
    assert U4_BLOCK in best


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_resource_closed_forms(n):
    k = n.bit_length() - 1
    profile = count_resources(assemble(layout_plan("san", n)))
    assert profile.cswap_count == 3 * (2 ** (k - 1) - 1)
    assert profile.ancilla_count == 3 * (k - 1)


def test_u8_explicit_counts():
    profile = count_resources(assemble(layout_plan("san", 8)))
    assert (profile.cswap_count, profile.ancilla_count) == (9, 6)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_every_pair_reaches_the_measured_slot(n):
    _, coverage = real_pair_coverage(layout_plan("san", n))
    assert len(coverage) == n * (n - 1) // 2
    assert (coverage > 0).all()


def test_pair_one_two_has_single_covering_outcome():
    plan = layout_plan("san", 4)
    assert pair_coverage(plan)[0, 1] == 1
    assert decode_all(plan)[:2, 0b000].tolist() == [1, 2]


def test_single_slot_one_verdict_per_shot():
    plan = layout_plan("san", 8, 1, "standard")
    circuit = assemble(plan)
    assert plan.slots == ((1, 2),)
    assert plan.measured_labels() == ("s1", "s2", "s3", "s4", "s5", "s6", "r1")
    assert circuit.qubit_count == 6 + 8 + 1


def test_rows_are_bijections():
    plan = layout_plan("san", 8)
    labels = decode_all(plan)
    assert labels.shape == (8, 64)
    assert (np.sort(labels, axis=0) == np.arange(1, 9)[:, None]).all()


def test_u4_builder_shape():
    plan = layout_plan("san", 4)
    circuit = assemble(plan)
    assert plan.ancilla_count == 3
    assert count_resources(circuit).cswap_count == 3
    # each ancilla controls exactly one register swap
    controls = [anc for anc, _, _ in plan.controlled_swaps]
    assert sorted(controls) == [0, 1, 2]


def test_padded_coverage_excludes_pads():
    plan = layout_plan("san", 8)
    _, coverage = real_pair_coverage(plan, 6)
    assert len(coverage) == 15
    assert (coverage > 0).all()
