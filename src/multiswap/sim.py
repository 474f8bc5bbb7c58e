"""Exact dense statevector execution, probability extraction, shot sampling.

Qubit 0 is the most significant bit of a basis index, so the joint state of
registers listed in order is their Kronecker product in that order.

The input is a state or a product of factor states in qubit order (the
paper's circuit starts with |0> ancillas and result qubits next to the input
registers). A run allocates one zeroed buffer of 16 * 2**Q bytes, plus a
scratch buffer of two ``_BLOCK``-amplitude blocks, and never builds the dense
input. A factor is merged in just before the first gate that touches it, as
the new most significant axes of the active prefix, so qubits sit in the
order gates first reach them: a |0> factor costs nothing, and pages past the
active prefix stay untouched until a gate first writes them. A factor that no
gate touches is merged only if it is measured (``measured_distribution``) or
the full output is asked for (``run_statevector``, which then transposes to
qubit order unless the buffer already holds it). On the estimation path
nothing is copied; a dense input fed to ``run_statevector`` is held once as
the input and once in the buffer.

Gates act in place on the active prefix. Every gate kind the builders emit
is a basis permutation (X, CNOT, SWAP, CSWAP: two strided views of the
``[2]*k`` tensor exchange contents), a diagonal sign (Z, CCZ: one view is
negated) or H (a butterfly on the two half-views, done as a batched 2x2
matmul where the target's stride allows). Each kernel walks its views in
blocks small enough to stay in cache, so no gate allocates a state-sized
array; the measured marginal is reduced block by block the same way and
checked to sum to 1 in place of re-validating the state-sized output.

Shot sampling uses the counter-based Philox generator keyed by the run seed;
shot i consumes the i-th uniform of the stream, so a run partitioned across
workers by shot index reproduces the serial result exactly.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from .circuits import CircuitIR, Gate
from .states import NORM_ATOL, PureState

# A state, or its factors in qubit order (first factor most significant)
InputState = PureState | Sequence[PureState]

# Dense simulation only; beyond this many qubits use the permutation oracle
# in multiswap.estimation instead.
MAX_QUBITS = 26

# Amplitudes per view in one kernel block: two such blocks (512 KiB) plus the
# buffer stay in a core's L2 cache.
_BLOCK = 1 << 14
# A view whose contiguous last axis is at most this long is walked one column
# at a time, so numpy's inner loop runs down the long strided axis instead.
_NARROW = 4

# kind -> (bits of one view, bits of the other), in the gate's qubit order
_EXCHANGES = {
    "X": ((0,), (1,)),
    "CNOT": ((1, 0), (1, 1)),
    "SWAP": ((0, 1), (1, 0)),
    "CSWAP": ((1, 0, 1), (1, 1, 0)),
}
# kind -> bits of the view whose sign flips
_SIGNS = {"Z": (1,), "CCZ": (1, 1, 1)}


def _state_bytes(qubit_count: int) -> str:
    size, unit = 16 << qubit_count, "B"
    for bigger in ("KiB", "MiB", "GiB", "TiB", "PiB", "EiB"):
        if size < 1024:
            break
        size, unit = size >> 10, bigger
    return f"{size} {unit}"


def _check_size(qubit_count: int, max_qubits: int):
    if qubit_count > max_qubits:
        raise ValueError(
            f"circuit has {qubit_count} qubits ({_state_bytes(qubit_count)} statevector), "
            f"above the dense cap of {max_qubits} qubits ({_state_bytes(max_qubits)}); "
            "use the permutation oracle engine for larger runs"
        )


def _split(psi: np.ndarray, qubits, qubit_count: int) -> np.ndarray:
    """View of flat ``psi`` shaped (run, 2, run, 2, ..., run): each of the
    sorted ``qubits`` has its own axis 2i+1 and the qubits between them are
    merged into one axis (length 1 where there are none)."""
    shape, prev = [], -1
    for qb in qubits:
        shape += [1 << (qb - prev - 1), 2]
        prev = qb
    shape.append(1 << (qubit_count - 1 - prev))
    return psi.reshape(shape)


def _blocks(shape):
    """Slice tuples cutting an array of ``shape`` into C-order slabs of at
    most ``_BLOCK`` elements; every axis keeps its place."""
    axis, tail = len(shape) - 1, 1
    while axis > 0 and tail * shape[axis] <= _BLOCK:
        tail *= shape[axis]
        axis -= 1
    step = max(1, _BLOCK // tail)
    rest = (slice(None),) * (len(shape) - axis - 1)
    for outer in np.ndindex(*shape[:axis]):
        head = tuple(slice(i, i + 1) for i in outer)
        for lo in range(0, shape[axis], step):
            yield head + (slice(lo, lo + step),) + rest


def _pieces(*views):
    """Matching blocks of equal-shape views, split into columns when the
    contiguous last axis is narrow."""
    narrow = 1 < views[0].shape[-1] <= _NARROW
    for ix in _blocks(views[0].shape):
        blocks = [v[ix] for v in views]
        if narrow:
            for c in range(blocks[0].shape[-1]):
                yield [b[..., c] for b in blocks]
        else:
            yield blocks


def _hadamard(t: np.ndarray, h: np.ndarray, buf: np.ndarray):
    """Butterfly ``h`` (real 2x2) over the middle axis of ``t`` (run, 2, run)."""
    rows, _, cols = t.shape
    if cols > _NARROW:
        # each block is a (2, n) float slab per row: one batched matmul into
        # the buffer, then one copy back
        f = t.view(np.float64)
        scratch = buf.reshape(-1).view(np.float64)
        for r, c in _blocks((rows, 2 * cols)):
            block = f[r, :, c]
            out = scratch[: block.size].reshape(block.shape)
            np.matmul(h, block, out=out)
            np.copyto(block, out)
    else:
        # matmul on 2 x (2 * cols) matrices is call-bound; go column-wise
        scale = h[0, 0]
        for a, b in _pieces(t[:, 0, :], t[:, 1, :]):
            tmp = buf[0, : a.size].reshape(a.shape)
            np.add(a, b, out=tmp)
            np.subtract(a, b, out=b)
            np.multiply(tmp, scale, out=a)
            np.multiply(b, scale, out=b)


def _apply_gate(psi: np.ndarray, gate: Gate, qubit_count: int, buf: np.ndarray):
    """Apply ``gate`` in place to the flat state ``psi``; ``buf`` is scratch
    of shape (2, _BLOCK)."""
    order = sorted(gate.qubits)
    t = _split(psi, order, qubit_count)
    if gate.kind == "H":
        _hadamard(t, gate.matrix.real, buf)
        return

    def view(bits):
        ix = [slice(None)] * t.ndim
        for qb, bit in zip(gate.qubits, bits):
            ix[2 * order.index(qb) + 1] = bit
        v = t[tuple(ix)]
        # dropping unit axes is always a view; one axis stays when the gate
        # covers every qubit, so the result is never a scalar
        return v.reshape([n for n in v.shape if n > 1] or [1])

    if gate.kind in _SIGNS:
        for (a,) in _pieces(view(_SIGNS[gate.kind])):
            np.negative(a, out=a)
        return
    first, second = _EXCHANGES[gate.kind]
    for a, b in _pieces(view(first), view(second)):
        # both sides go through the buffer: numpy first copies a source whose
        # address range overlaps the destination's into a fresh temporary
        ta = buf[0, : a.size].reshape(a.shape)
        tb = buf[1, : b.size].reshape(b.shape)
        np.copyto(ta, a)
        np.copyto(tb, b)
        np.copyto(a, tb)
        np.copyto(b, ta)


def _evolve(
    circuit: CircuitIR, state: InputState, max_qubits: int, keep
) -> tuple[np.ndarray, dict[int, int]]:
    """Run every gate on one zeroed buffer that the input factors enter lazily.

    Returns the active state (flat, 2**k amplitudes over the k merged
    qubits) and each merged qubit's position in it, 0 most significant.
    A factor is merged just before the first gate touching it; factors
    holding a qubit of ``keep`` that no gate touched are merged afterwards,
    last factor first; any other factor never enters the buffer.
    """
    factors = [state] if isinstance(state, PureState) else list(state)
    total = sum(f.width for f in factors)
    if total != circuit.qubit_count:
        raise ValueError(f"input width {total} != circuit qubits {circuit.qubit_count}")
    _check_size(circuit.qubit_count, max_qubits)
    owner, first = [], []
    for i, f in enumerate(factors):
        first.append(len(owner))
        owner += [i] * f.width
    psi = np.zeros(1 << circuit.qubit_count, dtype=np.complex128)
    psi[0] = 1.0
    low: dict[int, int] = {}  # merged qubit -> bit, counted from the least significant

    def merge(i: int):
        # psi[:n] -> f (x) psi[:n]: the factor becomes the most significant
        # axes; the tail is written before the head it reads is scaled
        f, base, width = factors[i].amplitudes, len(low), factors[i].width
        n = 1 << base
        if f[1:].any():
            np.multiply(f[1:, None], psi[:n], out=psi[n : f.size * n].reshape(-1, n))
        if f[0] != 1:
            psi[:n] *= f[0]
        for j in range(width):
            low[first[i] + j] = base + width - 1 - j

    buf = np.empty((2, _BLOCK), dtype=np.complex128)
    for gate in circuit.gates:
        for q in gate.qubits:
            if q not in low:
                merge(owner[q])
        k = len(low)
        inner = Gate(gate.kind, tuple(k - 1 - low[q] for q in gate.qubits))
        _apply_gate(psi[: 1 << k], inner, k, buf)
    for q in sorted(keep, reverse=True):
        if q not in low:
            merge(owner[q])
    k = len(low)
    return psi[: 1 << k], {q: k - 1 - b for q, b in low.items()}


def run_statevector(
    circuit: CircuitIR, input_state: InputState, *, max_qubits: int = MAX_QUBITS
) -> PureState:
    """Evolve the input through every gate and return the exact output state,
    in qubit order.

    ``input_state`` is a state or its factors in qubit order. The input is
    left unchanged; the output is a new buffer.
    """
    q = circuit.qubit_count
    psi, pos = _evolve(circuit, input_state, max_qubits, range(q))
    axes = [pos[qb] for qb in range(q)]
    if axes != list(range(q)):
        psi = psi.reshape((2,) * q).transpose(axes).reshape(-1)
    return PureState(psi, q)


def measured_distribution(
    circuit: CircuitIR, input_state: InputState, *, max_qubits: int = MAX_QUBITS
) -> tuple[tuple[str, ...], np.ndarray]:
    """Exact marginal over the measured qubits, in declared label order.

    ``input_state`` is a state or its factors in qubit order. Returns
    (labels, p) where p[i] is the probability of the bitstring whose
    leftmost bit (first label) is the most significant bit of i.
    """
    if not circuit.measured:
        raise ValueError("circuit declares no measured qubits")
    psi, pos = _evolve(circuit, input_state, max_qubits, circuit.measured_qubits)
    keep = [pos[qb] for qb in circuit.measured_qubits]
    order = sorted(keep)
    # kept qubits sit on the odd axes, the unmeasured runs on the even ones
    psi = _split(psi, order, len(pos))
    drop = tuple(range(0, psi.ndim, 2))
    probs = np.zeros((2,) * len(keep))
    buf = np.empty(_BLOCK)
    for ix in _blocks(psi.shape):
        block = psi[ix]
        p = buf[: block.size].reshape(block.shape)
        np.abs(block, out=p)
        np.square(p, out=p)
        probs[ix[1::2]] += p.sum(axis=drop)
    probs = np.transpose(probs, [order.index(i) for i in keep]).reshape(-1)
    # the state-sized output is never wrapped in a validated PureState, so
    # the marginal is checked in its place
    total = probs.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 2 * NORM_ATOL:
        raise ValueError(f"measured marginal sums to {total!r}, not 1")
    return circuit.labels, probs


def bitstring(index: int, nbits: int) -> str:
    return format(index, f"0{nbits}b")


def measure_probabilities(
    circuit: CircuitIR, input_state: InputState, *, max_qubits: int = MAX_QUBITS
) -> dict[str, float]:
    """Outcome distribution over measured bits as {bitstring: probability}."""
    labels, probs = measured_distribution(circuit, input_state, max_qubits=max_qubits)
    n = len(labels)
    return {bitstring(i, n): float(p) for i, p in enumerate(probs) if p > 0.0}


def shot_rng(seed: int) -> np.random.Generator:
    """The run's named generator: counter-based Philox keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def sample_from_distribution(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Draw i.i.d. outcome indices, one uniform per shot index."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"probabilities sum to {total}, not 1")
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = shot_rng(seed).random(shots)
    return np.searchsorted(cdf, u, side="right")


def sample_shots(
    circuit: CircuitIR,
    input_state: InputState,
    shots: int,
    seed: int,
    *,
    max_qubits: int = MAX_QUBITS,
) -> Counter:
    """Multiset of measured bitstrings drawn i.i.d. from the exact marginal."""
    labels, probs = measured_distribution(circuit, input_state, max_qubits=max_qubits)
    idx = sample_from_distribution(probs, shots, seed)
    values, counts = np.unique(idx, return_counts=True)
    n = len(labels)
    return Counter({bitstring(int(v), n): int(c) for v, c in zip(values, counts)})


def project_qubits(
    state: PureState, qubits, bits: str
) -> tuple[float, PureState | None]:
    """Condition on measuring ``qubits`` (in the given order) as ``bits``.

    Returns (probability, normalized post-measurement state on the remaining
    qubits in their original order), or (0.0, None) for an impossible outcome.
    """
    qubits = list(qubits)
    if len(qubits) != len(bits):
        raise ValueError("one bit per projected qubit required")
    q = state.width
    psi = state.amplitudes.reshape((2,) * q)
    index = [slice(None)] * q
    for qb, b in zip(qubits, bits):
        index[qb] = int(b)
    sub = psi[tuple(index)].reshape(-1)
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob <= 0.0:
        return 0.0, None
    return prob, PureState(sub / np.sqrt(prob), q - len(qubits))
