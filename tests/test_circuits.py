import numpy as np
import pytest

from multiswap.circuits import (
    CircuitIR,
    Gate,
    ResourceProfile,
    count_resources,
    index_bits,
)


def test_gate_arity_enforced():
    Gate("H", (0,))
    Gate("CSWAP", (0, 1, 2))
    with pytest.raises(ValueError, match="takes 2 qubits"):
        Gate("CNOT", (0,))
    with pytest.raises(ValueError, match="unknown gate"):
        Gate("T", (0,))
    with pytest.raises(ValueError, match="distinct"):
        Gate("SWAP", (1, 1))


def test_circuit_validates_indices_and_roles():
    with pytest.raises(ValueError, match="exceeds qubit count"):
        CircuitIR(1, ("data",), (Gate("CNOT", (0, 1)),))
    with pytest.raises(ValueError, match="roles must cover"):
        CircuitIR(2, ("data",), ())
    with pytest.raises(ValueError, match="out of range"):
        CircuitIR(1, ("data",), (), ((3, "m"),))
    with pytest.raises(ValueError, match="duplicate"):
        CircuitIR(2, ("data", "data"), (), ((0, "a"), (0, "b")))


def test_count_resources_empty_circuit():
    profile = count_resources(CircuitIR(2, ("data", "data"), ()))
    assert (profile.cswap_count, profile.ancilla_count, profile.gate_count_total) == (0, 0, 0)


def test_count_resources_traversal():
    circuit = CircuitIR(
        4,
        ("ancilla", "data", "data", "result"),
        (Gate("H", (0,)), Gate("CSWAP", (0, 1, 2)), Gate("H", (0,))),
        ((0, "anc"),),
    )
    profile = count_resources(circuit)
    assert profile.cswap_count == 1
    assert profile.ancilla_count == 1
    assert profile.gate_count_total == 3
    assert profile.qubit_count == 4


def test_resource_profile_invariants():
    with pytest.raises(ValueError, match="non-negative"):
        ResourceProfile(-1, 0, 0, 0)
    with pytest.raises(ValueError, match="exceed"):
        ResourceProfile(3, 0, 2, 4)


@pytest.mark.parametrize("nbits", range(64))
def test_index_bits_matches_shift_and_mask(nbits):
    rng = np.random.default_rng(nbits)
    values = rng.integers(0, 1 << max(nbits, 1), size=300, dtype=np.uint64).astype(np.int64)
    values[:2] = [0, (1 << nbits) - 1]
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.int64)
    expected = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    bits = index_bits(values, nbits)
    assert bits.dtype == np.uint8 and bits.flags.c_contiguous
    assert np.array_equal(bits, expected)
