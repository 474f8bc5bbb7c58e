import functools
import re
import textwrap

import numpy as np
import pytest

from multiswap import sim
from multiswap.builder import assemble, input_factors, layout_plan
from multiswap.circuits import GATE_ARITY, CircuitIR, Gate
from multiswap.sim import (
    measured_distribution,
    project_qubits,
    run_statevector,
    sample_from_distribution,
)
from multiswap.states import PureState, basis_state, normalize, tensor_product
from multiswap.swaptest import build_swap_test, pair_input

from conftest import random_ensemble, random_state, run_python

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


def test_qubit_cap_enforced(monkeypatch):
    monkeypatch.setattr(sim, "MAX_QUBITS", 4)
    with pytest.raises(ValueError, match=r"5 qubits \(512 B statevector\).*4 qubits \(256 B\).*oracle"):
        run_statevector(_circuit(5, []), basis_state(5))
    monkeypatch.setattr(sim, "MAX_QUBITS", 26)
    with pytest.raises(ValueError, match=r"30 qubits \(16 GiB statevector\).*26 qubits \(1 GiB\)"):
        sim.check_size(30)


@pytest.mark.parametrize("qubits, size", [
    (27, "2 GiB"), (60, "16 EiB"), (61, "32 EiB"), (65, "512 EiB"), (66, "2^70 B"),
    (106, "2^110 B"),
])
def test_refusal_sizes_the_state_past_the_unit_ladder(qubits, size, monkeypatch):
    # 16 * 2**q bytes; past 1023 EiB the size is written as the power of two
    monkeypatch.setattr(sim, "MAX_QUBITS", 26)
    message = rf"{qubits} qubits \({re.escape(size)} statevector\).*26 qubits \(1 GiB\)"
    with pytest.raises(ValueError, match=message):
        sim.check_size(qubits)


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


def test_measured_distribution_identical_states():
    circuit = build_swap_test("standard", 1)
    rng = np.random.default_rng(5)
    s = random_state(rng, 1)
    _, probs = measured_distribution(circuit, pair_input("standard", s, s))
    assert probs[0] == pytest.approx(1.0, abs=1e-10)


def test_measured_distribution_recorded_pair():
    a = normalize([0.0864, 0.9963])
    b = normalize([0.8391, 0.5440])
    circuit = build_swap_test("standard", 1)
    _, probs = measured_distribution(circuit, pair_input("standard", a, b))
    assert probs[0] == pytest.approx((1 + 0.3774) / 2, abs=5e-4)


def test_measured_distribution_orthogonal():
    circuit = build_swap_test("standard", 1)
    _, probs = measured_distribution(
        circuit, pair_input("standard", basis_state(1, 0), basis_state(1, 1))
    )
    assert probs[0] == pytest.approx(0.5, abs=1e-12)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(6)
    circuit = _circuit(
        3,
        [Gate("H", (0,)), Gate("CNOT", (0, 1)), Gate("CCZ", (0, 1, 2))],
        [(0, "a"), (1, "b"), (2, "c")],
    )
    _, probs = measured_distribution(circuit, random_state(rng, 3))
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_empty_measurement_set_rejected():
    with pytest.raises(ValueError, match="no measured"):
        measured_distribution(_circuit(1, []), basis_state(1))


def test_label_order_defines_bit_order():
    # measure in reversed qubit order: first label takes the leftmost bit
    circuit = _circuit(2, [Gate("X", (1,))], [(1, "b"), (0, "a")])
    labels, probs = measured_distribution(circuit, basis_state(2))
    assert labels == ("b", "a")
    assert np.flatnonzero(probs).tolist() == [0b10]
    assert probs[0b10] == pytest.approx(1.0)


def _sample_counts(circuit, state, shots, seed) -> np.ndarray:
    """Shots per outcome index, drawn the way the estimation path draws."""
    labels, probs = measured_distribution(circuit, state)
    idx = sample_from_distribution(probs, shots, seed)
    return np.bincount(idx, minlength=1 << len(labels))


def test_sampling_frequency_tracks_probability():
    circuit = _circuit(1, [Gate("H", (0,))], [(0, "m")])
    counts = _sample_counts(circuit, basis_state(1), 10**6, seed=123)
    freq = counts[0] / 10**6
    assert 0.497 <= freq <= 0.503  # 3 sigma around 0.5


def test_sampling_deterministic_circuit():
    circuit = _circuit(2, [Gate("X", (0,))], [(0, "a"), (1, "b")])
    counts = _sample_counts(circuit, basis_state(2), 500, seed=9)
    assert counts.tolist() == [0, 0, 500, 0]


def test_sampling_same_seed_same_multiset():
    circuit = _circuit(2, [Gate("H", (0,)), Gate("CNOT", (0, 1))], [(0, "a"), (1, "b")])
    first = _sample_counts(circuit, basis_state(2), 4096, seed=77)
    second = _sample_counts(circuit, basis_state(2), 4096, seed=77)
    assert np.array_equal(first, second)
    third = _sample_counts(circuit, basis_state(2), 4096, seed=78)
    assert not np.array_equal(first, third)


@pytest.mark.parametrize("probs, shots, message", [
    pytest.param([0.5, 0.5], 0, "shots must be >= 1", id="zero_shots"),
    pytest.param([0.5, 0.25], 10, "probabilities sum to 0.75, not 1", id="short_sum"),
])
def test_sampler_refusals(probs, shots, message):
    with pytest.raises(ValueError, match=message):
        sample_from_distribution(np.array(probs), shots, seed=0)


def test_sampler_picks_what_the_float_draw_of_the_same_word_picks():
    # integer thresholds against raw words give numpy's searchsorted of its
    # uniform doubles, including a cumulative probability equal to a draw
    shots, seed = 20000, 9
    first = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(1)[0]
    weights = np.random.default_rng(4).random(37)
    for probs in (weights / weights.sum(), np.full(8, 0.125), np.array([0.0, 0.5, 0.0, 0.5]),
                  np.array([1.0]), np.array([first, 1.0 - first])):
        uniforms = np.random.Generator(np.random.Philox(key=np.uint64(seed))).random(shots)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        expected = np.searchsorted(cdf, uniforms, side="right")
        assert np.array_equal(sample_from_distribution(probs, shots, seed), expected)
    # a draw reaches every negative probability
    assert sim.draw_thresholds(np.array([-0.5, -1e-300, 0.0])).tolist() == [0, 0, 0]


def test_project_qubits_conditions_and_normalizes():
    rng = np.random.default_rng(8)
    a, b = random_state(rng, 1), random_state(rng, 1)
    state = tensor_product([normalize([1, 1]), a, b])
    prob, rest = project_qubits(state, [0], "0")
    assert prob == pytest.approx(0.5, abs=1e-12)
    expected = tensor_product([a, b])
    assert np.allclose(rest.amplitudes, expected.amplitudes, atol=1e-12)


def test_project_qubits_on_an_impossible_outcome_is_empty():
    state = tensor_product([basis_state(1), normalize([1, 1])])
    assert project_qubits(state, [0], [1]) == (0.0, None)


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


def _random_factors(rng, q):
    """Factors covering q qubits: 1-qubit |0>, |1> or random states and random
    2- and 3-qubit states, in random order."""
    factors, left = [], q
    while left:
        width = int(rng.integers(1, min(3, left) + 1))
        if width == 1:
            pick = rng.integers(3)
            factors.append(basis_state(1, int(pick)) if pick < 2 else random_state(rng, 1))
        else:
            factors.append(random_state(rng, width))
        left -= width
    return factors


def _assert_product_matches_dense(circuit, factors):
    dense = tensor_product(factors)
    np.testing.assert_allclose(run_statevector(circuit, factors).amplitudes,
                               run_statevector(circuit, dense).amplitudes, rtol=0, atol=1e-12)
    if circuit.measured:
        labels, probs = measured_distribution(circuit, factors)
        assert labels == circuit.labels
        np.testing.assert_allclose(probs, measured_distribution(circuit, dense)[1],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_product_input_matches_dense_input(seed):
    # gates reach the factors in a scrambled order and leave some untouched;
    # measurements read touched and untouched qubits alike
    rng = np.random.default_rng(100 + seed)
    kinds = sorted(GATE_ARITY)
    for _ in range(8):
        q = int(rng.integers(3, 10))
        factors = _random_factors(rng, q)
        active = rng.permutation(q)[: int(rng.integers(3, q + 1))]
        gates = []
        for _ in range(int(rng.integers(1, 12))):
            kind = kinds[rng.integers(len(kinds))]
            gates.append(Gate(kind, rng.choice(active, size=GATE_ARITY[kind], replace=False)))
        read = rng.permutation(q)[: int(rng.integers(0, q + 1))]
        measured = [(int(qb), f"m{qb}") for qb in read]
        _assert_product_matches_dense(_circuit(q, gates, measured), factors)


@pytest.mark.parametrize("scheme", ["new", "san"])
@pytest.mark.parametrize("final", ["standard", "destructive"])
def test_product_input_matches_dense_on_built_circuits(scheme, final):
    rng = np.random.default_rng(7)
    plan = layout_plan(scheme, 4, 1, final)
    circuit = assemble(plan)
    _assert_product_matches_dense(circuit, input_factors(random_ensemble(rng, 4), plan))


def _total_variation(p, q) -> float:
    return 0.5 * float(np.abs(p - q).sum())


_BUILT = [(scheme, n, width, final)
          for scheme in ("new", "san") for final in ("standard", "destructive")
          for n in (4, 8) for width in (1, 2)]


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("scheme,n,width,final", [
    case for case in _BUILT if layout_plan(*case).total_qubits <= 22
])
def test_branched_marginal_matches_full_state_on_built_circuits(scheme, n, width, final, block,
                                                                monkeypatch):
    # a small _BLOCK lets the cap branch at these sizes: every ancilla at
    # block 1, the first few (or none) at block 64
    rng = np.random.default_rng(n + width)
    plan = layout_plan(scheme, n, width, final)
    circuit = assemble(plan)
    factors = input_factors(random_ensemble(rng, n, width), plan)
    expected = _reference_marginal(circuit, factors)
    monkeypatch.setattr(sim, "_BLOCK", block)
    labels, probs = measured_distribution(circuit, factors)
    assert labels == circuit.labels
    assert _total_variation(probs, expected) <= 1e-12


def _control_circuit(rng):
    """A random circuit over five control qubits (0-4) and 3-5 data qubits.

    Controls 0, 2, 3 and 4 get random one-qubit prefixes. Controls 0-3 are
    then used only as controls of CNOTs and CSWAPs (each at least once), so
    they are classical. Control 1 stays in |1> with no prefix, so its 0
    branch has weight 0. Control 0 is measured and control 3 is not.
    Control 4 is a target after its first control use, so it is not
    classical."""
    data = int(rng.integers(3, 6))
    q = 5 + data
    kinds = ["H", "X", "Z", "CNOT", "CCZ", "CSWAP"]
    prefix = [Gate(kinds[rng.integers(3)], (c,))
              for c in (0, 2, 3, 4) for _ in range(int(rng.integers(0, 3)))]
    gates = []
    for c in [0, 1, 2, 3, 4] + list(rng.integers(5, size=6)):
        kind = ("CNOT", "CSWAP")[rng.integers(2)]
        gates.append(Gate(kind, (c, *rng.choice(data, size=GATE_ARITY[kind] - 1, replace=False) + 5)))
    for _ in range(10):
        kind = kinds[rng.integers(len(kinds))]
        gates.append(Gate(kind, rng.choice(data, size=GATE_ARITY[kind], replace=False) + 5))
    gates = prefix + [gates[i] for i in rng.permutation(len(gates))] + [Gate("CNOT", (5, 4))]
    measured = [0] + [qb for qb in (1, 2, 4, *range(5, q)) if rng.random() < 0.6]
    circuit = _circuit(q, gates, [(int(qb), f"m{qb}") for qb in rng.permutation(measured)])
    controls = [random_state(rng, 1), basis_state(1, 1), basis_state(1, 0),
                random_state(rng, 1), random_state(rng, 1)]
    return circuit, controls + _random_factors(rng, data)


@pytest.mark.parametrize("seed", range(8))
def test_branched_marginal_matches_full_state_on_random_circuits(seed, monkeypatch):
    rng = np.random.default_rng(200 + seed)
    for _ in range(4):
        circuit, factors = _control_circuit(rng)
        found = sim._classical(circuit, sim._factors(circuit, factors))
        assert [qb for qb, _ in found if qb < 5] == [0, 1, 2, 3]
        expected = _reference_marginal(circuit, factors)
        for block in (1, 4, sim._BLOCK):
            monkeypatch.setattr(sim, "_BLOCK", block)
            labels, probs = measured_distribution(circuit, factors)
            assert labels == circuit.labels
            assert _total_variation(probs, expected) <= 1e-12
        monkeypatch.undo()


def test_branch_count_is_capped(monkeypatch):
    # 12 control-only qubits over 2 data qubits could split into 4096
    # branches; the cap allows 2**14 / (_BRANCH_BLOCKS * _BLOCK) of them
    gates = [Gate("H", (c,)) for c in range(12)]
    gates += [Gate("CSWAP", (c, 12, 13)) if c % 2 else Gate("CNOT", (c, 13)) for c in range(12)]
    circuit = _circuit(14, gates, [(qb, f"m{qb}") for qb in range(14)])
    factors = [basis_state(1)] * 12 + [random_state(np.random.default_rng(9), 2)]
    expected = _reference_marginal(circuit, factors)
    calls = []
    rewrite = sim._rewrite
    monkeypatch.setattr(sim, "_rewrite", lambda *args: calls.append(1) or rewrite(*args))
    for block in (sim._BLOCK, 64, 16, 1):
        monkeypatch.setattr(sim, "_BLOCK", block)
        calls.clear()
        _, probs = measured_distribution(circuit, factors)
        assert _total_variation(probs, expected) <= 1e-12
        cap = 2**14 // (sim._BRANCH_BLOCKS * block)
        assert len(calls) == min(max(cap, 1), 2**12) <= max(2**14 // block, 1)


def test_product_output_is_in_qubit_order():
    # the buffer starts as the product of the factors, the first factor's
    # qubits most significant, so a gate on qubit 0 flips the top bit
    out = run_statevector(_circuit(2, [Gate("X", (0,))]), [basis_state(1), basis_state(1)])
    np.testing.assert_array_equal(out.amplitudes, [0, 0, 1, 0])
    rng = np.random.default_rng(31)
    a, b, c = random_state(rng, 2), random_state(rng, 1), random_state(rng, 2)
    out = run_statevector(_circuit(5, [Gate("Z", (3,)), Gate("Z", (3,))]), [a, b, c])
    np.testing.assert_allclose(out.amplitudes, tensor_product([a, b, c]).amplitudes,
                               rtol=0, atol=1e-15)


def test_run_statevector_never_rewrites(monkeypatch):
    # the gates run as written, SWAP included: no wire map, no transpose
    calls = []
    rewrite = sim._rewrite
    monkeypatch.setattr(sim, "_rewrite", lambda *args: calls.append(1) or rewrite(*args))
    rng = np.random.default_rng(33)
    factors = [random_state(rng, 1), random_state(rng, 2), random_state(rng, 1)]
    gates = [Gate("H", (3,)), Gate("SWAP", (0, 3)), Gate("CSWAP", (3, 1, 2)), Gate("CNOT", (2, 0))]
    circuit = _circuit(4, gates)
    expected = tensor_product(factors).amplitudes
    for gate in gates:
        expected = _reference_unitary(gate, 4) @ expected
    np.testing.assert_allclose(run_statevector(circuit, factors).amplitudes, expected,
                               rtol=0, atol=1e-12)
    assert calls == []


def test_factor_widths_must_cover_the_circuit():
    with pytest.raises(ValueError, match="input width 3 != circuit qubits 4"):
        run_statevector(_circuit(4, []), [basis_state(1), basis_state(2)])
    with pytest.raises(ValueError, match="input width 5 != circuit qubits 4"):
        measured_distribution(_circuit(4, [], [(0, "a")]), [basis_state(2)] * 2 + [basis_state(1)])


def test_merge_edge_cases():
    rng = np.random.default_rng(32)
    a = random_state(rng, 2)
    # f[0] == 0 merged into a non-empty buffer: the head it scales becomes zero
    no_head = normalize([0, 1, 1j, 0])
    # an all-zero tail merged into a non-empty buffer: nothing is written
    zero = basis_state(2)
    gates = [Gate("H", (0,)), Gate("CNOT", (1, 2)), Gate("CSWAP", (4, 0, 3))]
    for second in (no_head, zero, basis_state(2, 3)):
        _assert_product_matches_dense(_circuit(5, gates, [(3, "x"), (0, "y")]),
                                      [a, second, basis_state(1, 1)])
    # a dense factor of 2**q amplitudes merged into the empty buffer
    dense = random_state(rng, 6)
    _assert_product_matches_dense(_circuit(6, [Gate("H", (5,))], [(2, "z")]), [dense])
    _assert_product_matches_dense(_circuit(6, [], [(2, "z")]), [basis_state(6, 7)])


def test_untouched_unmeasured_factor_is_never_merged(monkeypatch):
    # a 20-qubit factor that no gate touches and no measurement reads: the
    # gates and the marginals only ever see one qubit. Qubit 0 is
    # control-only, so each of its two branches evolves qubit 1 alone: at 0
    # the CNOT is dropped and only the marginal splits the state, at 1 it is
    # an X on qubit 1
    sizes = []
    split = sim._split
    monkeypatch.setattr(sim, "_split",
                        lambda psi, *rest: sizes.append(psi.size) or split(psi, *rest))
    circuit = _circuit(22, [Gate("H", (0,)), Gate("CNOT", (0, 1))], [(1, "b"), (0, "a")])
    factors = [basis_state(1), basis_state(1), basis_state(20, 5)]
    labels, probs = measured_distribution(circuit, factors)
    np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-15)
    assert sizes == [2, 2, 2]


@pytest.mark.parametrize("scale", [1.001, np.nan])
def test_marginal_norm_is_checked(scale, monkeypatch):
    # the output is not re-validated as a PureState, so a kernel that lost
    # the norm or produced NaN must be caught at the marginal; the gated
    # qubit is measured, or its component would never be evolved
    monkeypatch.setattr(sim, "_apply_gate", lambda psi, *rest: np.multiply(psi, scale, out=psi))
    circuit = _circuit(3, [Gate("H", (1,))], [(1, "a")])
    with pytest.raises(ValueError, match="marginal sums to"):
        measured_distribution(circuit, [basis_state(1)] * 3)


def _child_peak_bytes(code: str) -> int:
    """Run ``code`` in a fresh interpreter and return its peak RSS in bytes.

    The peak is the child's own VmHWM: its ru_maxrss also takes in the
    resident set of the test process it was spawned from."""
    code += textwrap.dedent("""
        with open("/proc/self/status") as fh:
            print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
    """)
    proc = run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1]) * 1024  # VmHWM is in KiB


def test_26_qubit_statevector_holds_one_working_copy():
    """The README's 26-qubit limit, run at 26 qubits: a 1 GiB input plus one
    working copy, so the process stays under 2.5 GiB."""
    child = textwrap.dedent("""
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
    """)
    peak_bytes = _child_peak_bytes(child)
    assert peak_bytes < 2.5 * 2**30, f"peak RSS {peak_bytes / 2**30:.2f} GiB"


def test_run_statevector_holds_one_buffer_on_a_product_input():
    """22 one-qubit factors reached out of qubit order, plus a SWAP: the
    buffer starts in qubit order, so the 64 MiB state is never copied."""
    child = textwrap.dedent("""
        import numpy as np
        from multiswap.circuits import CircuitIR, Gate
        from multiswap.sim import run_statevector
        from multiswap.states import normalize

        q = 22
        rng = np.random.default_rng(22)
        factors = [normalize(rng.normal(size=2) + 1j * rng.normal(size=2)) for _ in range(q)]
        gates = (Gate("H", (21,)), Gate("CNOT", (21, 0)), Gate("SWAP", (1, 20)),
                 Gate("CSWAP", (0, 2, 19)))
        psi = run_statevector(CircuitIR(q, ("data",) * q, gates), factors).amplitudes
        assert psi.size == 1 << q and abs(np.vdot(psi, psi) - 1) < 1e-9
    """)
    baseline = _child_peak_bytes("import numpy as np\n")
    peak = _child_peak_bytes(child)
    state = 16 << 22
    assert peak < baseline + 1.5 * state, (
        f"peak RSS {peak / 2**20:.0f} MiB, numpy alone {baseline / 2**20:.0f} MiB")


def test_24_qubit_estimation_run_stays_under_100_mib():
    """The statevector engine at 24 qubits (n=8, width 2) never holds the
    256 MiB state: it branches on the ancillas and evolves each slot's
    qubits on their own buffer."""
    child = textwrap.dedent("""
        import numpy as np
        from multiswap.estimation import decide, estimate_all_overlaps
        from multiswap.states import StateEnsemble

        rng = np.random.default_rng(24)
        v = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        ensemble = StateEnsemble(v)
        result = estimate_all_overlaps(decide(ensemble, shots=1000, seed=3, engine="statevector"))
        assert result.run.engine == "statevector" and result.run.plan.total_qubits == 24
    """)
    peak_mib = _child_peak_bytes(child) / 2**20
    assert peak_mib < 100, f"peak RSS {peak_mib:.0f} MiB"
