import numpy as np
import pytest

from multiswap.circuits import index_bits
from multiswap.sim import measured_distribution
from multiswap.states import basis_state, exact_overlap, normalize
from multiswap.swaptest import (
    VARIANTS,
    build_swap_test,
    destructive_decode,
    overlap_from_prob,
    pair_input,
    verdict_probability,
)

from conftest import random_state


def test_overlap_from_prob_endpoints():
    assert overlap_from_prob(1.0) == 1.0
    assert overlap_from_prob(0.5) == 0.0
    assert overlap_from_prob(0.6887) == pytest.approx(0.3774, abs=1e-10)


def test_overlap_from_prob_not_clamped():
    assert overlap_from_prob(0.4) == pytest.approx(-0.2)


def test_overlap_from_prob_rejects_bad_probability():
    with pytest.raises(ValueError):
        overlap_from_prob(1.2)
    with pytest.raises(ValueError):
        overlap_from_prob(-0.1)


def test_round_trip_identity():
    for o in np.linspace(0, 1, 11):
        assert overlap_from_prob((1 + o) / 2) == pytest.approx(o, abs=1e-12)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant"):
        build_swap_test("fancy", 1)


def test_standard_identical_inputs_never_fail():
    rng = np.random.default_rng(0)
    s = random_state(rng, 2)
    assert verdict_probability("standard", s, s) == pytest.approx(1.0, abs=1e-10)


def test_standard_recorded_pair_success_probability():
    a = normalize([0.4164, 0.9091])
    b = normalize([0.9981, 0.0609])
    p0 = verdict_probability("standard", a, b)
    assert p0 == pytest.approx((1 + 0.2218) / 2, abs=5e-4)


def test_destructive_orthogonal_inputs():
    # brute-force check on basis states: both-ones outcome has probability 1/2
    circuit = build_swap_test("destructive", 1)
    _, probs = measured_distribution(
        circuit, pair_input("destructive", basis_state(1, 0), basis_state(1, 1))
    )
    assert probs[0b11] == pytest.approx(0.5, abs=1e-12)
    assert verdict_probability("destructive", basis_state(1, 0), basis_state(1, 1)) == pytest.approx(0.5, abs=1e-12)


def test_destructive_decode_layout():
    rows = [
        [0, 0, 0, 0],
        [1, 1, 0, 1],  # pairs (1,0) and (1,1): one AND fires
        [1, 1, 1, 1],  # two ANDs cancel under parity
    ]
    assert destructive_decode(rows, 2).tolist() == [0, 1, 0]
    with pytest.raises(ValueError, match="expected 4 bits"):
        destructive_decode([[1, 1, 1]], 2)


def test_destructive_decode_identical_basis_states():
    circuit = build_swap_test("destructive", 2)
    s = basis_state(2, 3)
    _, probs = measured_distribution(circuit, pair_input("destructive", s, s))
    fail = probs[destructive_decode(index_bits(np.arange(16), 4), 2) == 1].sum()
    assert fail == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_destructive_decode_matches_standard_test(width):
    rng = np.random.default_rng(100 + width)
    for _ in range(8):
        a, b = random_state(rng, width), random_state(rng, width)
        assert verdict_probability("destructive", a, b) == pytest.approx(
            verdict_probability("standard", a, b), abs=1e-10
        )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_variant_equivalence_chain(variant, width):
    rng = np.random.default_rng(17)
    for _ in range(6):
        a, b = random_state(rng, width), random_state(rng, width)
        expected = (1 + exact_overlap(a, b)) / 2
        assert verdict_probability(variant, a, b) == pytest.approx(expected, abs=1e-10)
        assert overlap_from_prob(verdict_probability(variant, a, b)) == pytest.approx(
            2 * expected - 1, abs=1e-10
        )


@pytest.mark.parametrize("variant", VARIANTS)
def test_register_exchange_symmetry(variant):
    rng = np.random.default_rng(23)
    a, b = random_state(rng, 2), random_state(rng, 2)
    assert verdict_probability(variant, a, b) == pytest.approx(
        verdict_probability(variant, b, a), abs=1e-12
    )


def test_ancilla_counts_per_variant():
    for variant in ("standard", "ccz", "deferred"):
        circuit = build_swap_test(variant, 2)
        assert circuit.qubit_count == 5
        assert circuit.roles.count("result") == 1
    destructive = build_swap_test("destructive", 2)
    assert destructive.qubit_count == 4
    assert destructive.roles.count("result") == 0
