import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import multiswap
from multiswap import sim
from multiswap.circuits import GATE_ARITY, CircuitIR, Gate
from multiswap.sim import (
    measured_distribution,
    measure_probabilities,
    project_qubits,
    run_statevector,
    sample_shots,
)
from multiswap.states import PureState, basis_state, normalize, tensor_product
from multiswap.swaptest import build_swap_test, pair_input

from conftest import random_state

SQ2 = 1 / np.sqrt(2)


def _circuit(qubits, gates, measured=()):
    return CircuitIR(qubits, ("data",) * qubits, tuple(gates), tuple(measured))


def test_hadamard_on_zero():
    out = run_statevector(_circuit(1, [Gate("H", (0,))]), basis_state(1))
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_cswap_inactive_control():
    rng = np.random.default_rng(3)
    a, b = random_state(rng, 1), random_state(rng, 1)
    state = tensor_product([basis_state(1), a, b])
    out = run_statevector(_circuit(3, [Gate("CSWAP", (0, 1, 2))]), state)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_cswap_active_control_exchanges_targets():
    rng = np.random.default_rng(4)
    a, b = random_state(rng, 1), random_state(rng, 1)
    state = tensor_product([basis_state(1, index=1), a, b])
    out = run_statevector(_circuit(3, [Gate("CSWAP", (0, 1, 2))]), state)
    expected = tensor_product([basis_state(1, index=1), b, a])
    assert np.allclose(out.amplitudes, expected.amplitudes, atol=1e-12)


def test_width_mismatch_rejected():
    with pytest.raises(ValueError, match="width"):
        run_statevector(_circuit(2, []), basis_state(1))


def test_qubit_cap_enforced():
    with pytest.raises(ValueError, match=r"5 qubits \(512 B statevector\).*4 qubits \(256 B\).*oracle"):
        run_statevector(_circuit(5, []), basis_state(5), max_qubits=4)
    with pytest.raises(ValueError, match=r"30 qubits \(16 GiB statevector\).*26 qubits \(1 GiB\)"):
        sim._check_size(30, 26)


@pytest.mark.parametrize("kind,qubits", [
    ("H", (0,)), ("X", (0,)), ("Z", (0,)),
    ("CNOT", (0, 1)), ("SWAP", (1, 0)), ("CCZ", (0, 2, 1)), ("CSWAP", (2, 0, 1)),
])
def test_gates_are_involutions(kind, qubits):
    rng = np.random.default_rng(11)
    state = random_state(rng, 3)
    gate = Gate(kind, qubits)
    out = run_statevector(_circuit(3, [gate, gate]), state)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_unitarity_on_random_circuits():
    rng = np.random.default_rng(12)
    kinds = list(("H", "X", "Z", "CNOT", "SWAP", "CCZ", "CSWAP"))
    for _ in range(20):
        q = int(rng.integers(3, 6))
        gates = []
        for _ in range(15):
            kind = kinds[rng.integers(len(kinds))]
            arity = {"H": 1, "X": 1, "Z": 1, "CNOT": 2, "SWAP": 2, "CCZ": 3, "CSWAP": 3}[kind]
            gates.append(Gate(kind, tuple(rng.choice(q, size=arity, replace=False))))
        out = run_statevector(_circuit(q, gates), random_state(rng, q))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-10)


def test_measure_probabilities_identical_states():
    circuit = build_swap_test("standard", 1)
    rng = np.random.default_rng(5)
    s = random_state(rng, 1)
    probs = measure_probabilities(circuit, pair_input("standard", s, s))
    assert probs["0"] == pytest.approx(1.0, abs=1e-10)


def test_measure_probabilities_recorded_pair():
    a = normalize([0.0864, 0.9963])
    b = normalize([0.8391, 0.5440])
    circuit = build_swap_test("standard", 1)
    probs = measure_probabilities(circuit, pair_input("standard", a, b))
    assert probs["0"] == pytest.approx((1 + 0.3774) / 2, abs=5e-4)


def test_measure_probabilities_orthogonal():
    circuit = build_swap_test("standard", 1)
    probs = measure_probabilities(circuit, pair_input("standard", basis_state(1, 0), basis_state(1, 1)))
    assert probs["0"] == pytest.approx(0.5, abs=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(6)
    circuit = _circuit(
        3,
        [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CCZ", (0, 1, 2))],
        [(0, "a"), (1, "b"), (2, "c")],
    )
    probs = measure_probabilities(circuit, random_state(rng, 3))
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-10)


def test_empty_measurement_set_rejected():
    with pytest.raises(ValueError, match="no measured"):
        measure_probabilities(_circuit(1, []), basis_state(1))


def test_label_order_defines_bit_order():
    # measure in reversed qubit order: first label takes the leftmost bit
    circuit = _circuit(2, [Gate("X", (1,))], [(1, "b"), (0, "a")])
    probs = measure_probabilities(circuit, basis_state(2))
    assert probs == {"10": pytest.approx(1.0)}


def test_sampling_frequency_tracks_probability():
    circuit = _circuit(1, [Gate("H", (0,))], [(0, "m")])
    counts = sample_shots(circuit, basis_state(1), 10**6, seed=123)
    freq = counts["0"] / 10**6
    assert 0.497 <= freq <= 0.503  # 3 sigma around 0.5


def test_sampling_deterministic_circuit():
    circuit = _circuit(2, [Gate("X", (0,))], [(0, "a"), (1, "b")])
    counts = sample_shots(circuit, basis_state(2), 500, seed=9)
    assert counts == {"10": 500}


def test_sampling_same_seed_same_multiset():
    circuit = _circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))], [(0, "a"), (1, "b")])
    first = sample_shots(circuit, basis_state(2), 4096, seed=77)
    second = sample_shots(circuit, basis_state(2), 4096, seed=77)
    assert first == second
    third = sample_shots(circuit, basis_state(2), 4096, seed=78)
    assert first != third


def test_project_qubits_conditions_and_normalizes():
    rng = np.random.default_rng(8)
    a, b = random_state(rng, 1), random_state(rng, 1)
    state = tensor_product([normalize([1, 1]), a, b])
    prob, rest = project_qubits(state, [0], "0")
    assert prob == pytest.approx(0.5, abs=1e-12)
    expected = tensor_product([a, b])
    assert np.allclose(rest.amplitudes, expected.amplitudes, atol=1e-12)


def _reference_unitary(gate: Gate, q: int) -> np.ndarray:
    """The gate's full 2**q x 2**q unitary, one np.kron chain per nonzero
    entry of Gate.matrix (qubit 0 is the leftmost factor)."""
    m = len(gate.qubits)
    u = np.zeros((2**q, 2**q), dtype=np.complex128)
    for i, j in zip(*np.nonzero(gate.matrix)):
        factors = [np.eye(2)] * q
        for k, qb in enumerate(gate.qubits):
            e = np.zeros((2, 2))
            e[(i >> (m - 1 - k)) & 1, (j >> (m - 1 - k)) & 1] = 1.0
            factors[qb] = e
        u += gate.matrix[i, j] * functools.reduce(np.kron, factors)
    return u


def _placements(kind: str, rng: np.random.Generator):
    """Qubit counts and placements: a gate spanning every qubit of its circuit,
    one on the leading qubits (wide strides), random distinct qubits in both
    orders, and one ending on the last qubit (stride 1)."""
    arity = GATE_ARITY[kind]
    cases = [(arity, tuple(range(arity))), (arity, tuple(reversed(range(arity)))),
             (9, tuple(range(arity)))]
    for q in (arity + 1, 6, 9):
        qubits = tuple(int(x) for x in rng.choice(q, size=arity, replace=False))
        cases += [(q, qubits), (q, qubits[::-1])]
        cases.append((q, qubits[:-1] + (q - 1,) if q - 1 not in qubits[:-1] else qubits))
    return cases


@pytest.mark.parametrize("block", [sim._BLOCK, 8, 1])
@pytest.mark.parametrize("kind", sorted(GATE_ARITY))
def test_kernels_match_kron_reference(kind, block, monkeypatch):
    # small blocks make every kernel cut its views into many pieces
    monkeypatch.setattr(sim, "_BLOCK", block)
    rng = np.random.default_rng(sorted(GATE_ARITY).index(kind))
    for q, qubits in _placements(kind, rng):
        gate = Gate(kind, qubits)
        state = random_state(rng, q)
        out = run_statevector(_circuit(q, [gate]), state)
        expected = _reference_unitary(gate, q) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12,
                                   err_msg=f"{gate} on {q} qubits")


def test_run_statevector_leaves_input_unchanged():
    rng = np.random.default_rng(21)
    state = random_state(rng, 5)
    before = state.amplitudes.copy()
    gates = [Gate("H", (4,)), Gate("CSWAP", (0, 3, 1)), Gate("CCZ", (2, 4, 0)), Gate("X", (2,))]
    out = run_statevector(_circuit(5, gates), state)
    assert np.array_equal(state.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, state.amplitudes)


def _reference_marginal(circuit: CircuitIR, state: PureState) -> np.ndarray:
    """|psi|^2 summed over the unmeasured axes, then put in label order."""
    q = circuit.qubit_count
    probs = np.abs(run_statevector(circuit, state).amplitudes.reshape((2,) * q)) ** 2
    keep = list(circuit.measured_qubits)
    drop = tuple(i for i in range(q) if i not in keep)
    probs = probs.sum(axis=drop)
    remaining = [i for i in range(q) if i not in drop]
    return np.transpose(probs, [remaining.index(qb) for qb in keep]).reshape(-1)


@pytest.mark.parametrize("block", [sim._BLOCK, 4])
def test_measured_distribution_matches_full_marginal(block, monkeypatch):
    monkeypatch.setattr(sim, "_BLOCK", block)
    rng = np.random.default_rng(22)
    for q in (3, 7, 10):
        gates = [Gate("H", (int(qb),)) for qb in rng.choice(q, size=3, replace=False)]
        gates.append(Gate("CSWAP", tuple(int(x) for x in rng.choice(q, size=3, replace=False))))
        for size in (1, q // 2, q):
            measured = [(int(qb), f"m{qb}") for qb in rng.permutation(q)[:size]]
            circuit = _circuit(q, gates, measured)
            state = random_state(rng, q)
            labels, probs = measured_distribution(circuit, state)
            assert labels == circuit.labels
            np.testing.assert_allclose(probs, _reference_marginal(circuit, state),
                                       rtol=0, atol=1e-15)


def test_26_qubit_statevector_holds_one_working_copy():
    """The README's 26-qubit limit, run at 26 qubits: a 1 GiB input plus one
    working copy, so the process stays under 2.5 GiB."""
    child = textwrap.dedent("""
        import resource
        import numpy as np
        from multiswap.circuits import CircuitIR, Gate
        from multiswap.sim import run_statevector
        from multiswap.states import PureState

        q = 26
        # |0...0> with every page written, so the input really holds 1 GiB
        # (np.zeros would leave it unmapped until read)
        v = np.empty(1 << q, dtype=np.complex128)
        v.fill(0.0)
        v[0] = 1.0
        gates = [
            Gate("H", (0,)), Gate("H", (25,)), Gate("CNOT", (0, 1)), Gate("X", (2,)),
            Gate("SWAP", (2, 24)), Gate("CSWAP", (1, 24, 13)), Gate("CCZ", (0, 13, 25)),
            Gate("Z", (24,)),
        ]
        out = run_statevector(CircuitIR(q, ("data",) * q, tuple(gates)), PureState(v, q))
        psi = out.amplitudes
        # q0 = q1 = q13 in {0, 1}, q25 free; q0 = 0 moves X's bit to q24
        # (Z flips it), q0 = 1 moves it to q13 (CCZ flips q25 = 1)
        high = (1 << 25) | (1 << 24) | (1 << 12)
        expected = {2: -0.5, 3: -0.5, high: 0.5, high | 1: -0.5}
        assert np.count_nonzero(psi) == 4, np.flatnonzero(psi)[:8]
        for index, amplitude in expected.items():
            assert abs(psi[index] - amplitude) < 1e-12, (index, psi[index])
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    src = str(Path(multiswap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    peak_bytes = int(proc.stdout.split()[-1]) * 1024  # ru_maxrss is in KiB on Linux
    assert peak_bytes < 2.5 * 2**30, f"peak RSS {peak_bytes / 2**30:.2f} GiB"
