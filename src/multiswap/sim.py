"""Exact dense statevector execution, probability extraction, shot sampling.

Qubit 0 is the most significant bit of a basis index, so the joint state of
registers listed in order is their Kronecker product in that order.

The input is a state or a product of factor states in qubit order (the
paper's circuit starts with |0> ancillas and result qubits next to the input
registers).

``measured_distribution`` never holds the 2**Q state. It works in three
steps:

- Branches. A classical qubit is a width-1 factor that gets only one-qubit
  gates U and is then only ever a control (each ancilla of the paper's
  circuit: one H, then CSWAP controls). By deferred measurement the marginal
  is the sum, over the values b of such qubits, of the marginal of the
  branch in which each holds its b, weighted by |(U phi)[b]|^2. A measured
  classical qubit fixes its outcome bit; an unmeasured one is summed over.
  A branch of weight 0 is skipped. Only the first classical qubits (in
  qubit order) are branched on, at most 2**Q / (_BRANCH_BLOCKS * _BLOCK)
  branches in all, so their Python work stays small next to the
  amplitudes; the rest are evolved as ordinary qubits.
- Wire map. In a branch, a gate such a qubit controls is dropped at 0 and
  loses its control at 1 (CSWAP becomes SWAP, CNOT becomes X). Every SWAP,
  rewritten or written, exchanges two entries of a wire map (qubit q ends
  in storage qubit wire[q]), so no amplitude moves and the registers a
  relabelled CSWAP exchanges stay in separate components.
- Components. The branch's gates and input factors link its qubits into
  independent components. A component no measurement reads is skipped; each
  other one is evolved on its own buffer, reduced to its marginal, checked
  to sum to 1, and the branch marginal is their outer product.

``run_statevector`` returns the whole state, so it runs the circuit's gates
as written on one buffer over every qubit; a SWAP is an exchange kernel.

A buffer is one zeroed array of 16 * 2**k bytes for its k qubits, plus a
scratch buffer of two ``_BLOCK``-amplitude blocks; the dense input is never
built. Before the first gate the buffer becomes the product of its factors:
the last factor is merged first and each one after it enters as the new
most significant axes, so the buffer is in qubit order from the start and a
|0> factor costs nothing. A dense input fed to ``run_statevector`` is held
once as the input and once in the buffer.

Gates act in place on the buffer. Every gate kind left after the rewrite is
a basis permutation (X, CNOT, SWAP, CSWAP: two strided views of the
``[2]*k`` tensor exchange contents), a diagonal sign (Z, CCZ: one view is
negated) or H (a butterfly on the two half-views, done as a batched 2x2
matmul where the target's stride allows). Each kernel walks its views in
blocks small enough to stay in cache, so no gate allocates a state-sized
array; a marginal is reduced block by block the same way and checked in
place of re-validating the state-sized output.

Both engines draw shots by one rule, ``draw_stream`` and ``draw_thresholds``;
shot i reads word i of the stream, so a run partitioned across workers by
shot index reproduces the serial result exactly.
"""

from __future__ import annotations

import itertools
import math
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
# Python work of one branch's pass over the gates, in kernel blocks per gate:
# a gate call costs about as much as walking four blocks
_BRANCH_BLOCKS = 4

# kind -> (bits of one view, bits of the other), in the gate's qubit order
_EXCHANGES = {
    "X": ((0,), (1,)),
    "CNOT": ((1, 0), (1, 1)),
    "SWAP": ((0, 1), (1, 0)),
    "CSWAP": ((1, 0, 1), (1, 1, 0)),
}
# kind -> bits of the view whose sign flips
_SIGNS = {"Z": (1,), "CCZ": (1, 1, 1)}
# controlled kind -> what it does with its control at 1, on its targets
_UNCONTROLLED = {"CNOT": "X", "CSWAP": "SWAP"}
_HADAMARD = Gate("H", (0,)).matrix.real


def _state_bytes(qubit_count: int) -> str:
    power = qubit_count + 4  # 16 bytes per amplitude: 2**power bytes
    units = ("B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")
    return f"{1 << power % 10} {units[power // 10]}" if power < 70 else f"2^{power} B"


def check_size(qubit_count: int):
    """Refuse a dense run of ``qubit_count`` qubits above ``MAX_QUBITS``."""
    if qubit_count > MAX_QUBITS:
        raise ValueError(
            f"circuit has {qubit_count} qubits ({_state_bytes(qubit_count)} statevector), "
            f"above the dense cap of {MAX_QUBITS} qubits ({_state_bytes(MAX_QUBITS)}); "
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
    if math.prod(shape) <= _BLOCK:
        yield (slice(None),) * len(shape)
        return
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


def _apply_gate(psi: np.ndarray, kind: str, qubits, qubit_count: int, buf: np.ndarray):
    """Apply gate ``kind`` on ``qubits`` in place to the flat state ``psi``;
    ``buf`` is scratch of shape (2, _BLOCK)."""
    order = sorted(qubits)
    t = _split(psi, order, qubit_count)
    if kind == "H":
        _hadamard(t, _HADAMARD, buf)
        return

    def view(bits):
        ix = [slice(None)] * t.ndim
        for qb, bit in zip(qubits, bits):
            ix[2 * order.index(qb) + 1] = bit
        v = t[tuple(ix)]
        # dropping unit axes is always a view; one axis stays when the gate
        # covers every qubit, so the result is never a scalar
        return v.reshape([n for n in v.shape if n > 1] or [1])

    if kind in _SIGNS:
        for (a,) in _pieces(view(_SIGNS[kind])):
            np.negative(a, out=a)
        return
    first, second = _EXCHANGES[kind]
    for a, b in _pieces(view(first), view(second)):
        # both sides go through the buffer: numpy first copies a source whose
        # address range overlaps the destination's into a fresh temporary
        ta = buf[0, : a.size].reshape(a.shape)
        tb = buf[1, : b.size].reshape(b.shape)
        np.copyto(ta, a)
        np.copyto(tb, b)
        np.copyto(a, tb)
        np.copyto(b, ta)


def _factors(circuit: CircuitIR, state: InputState) -> list[tuple[int, PureState]]:
    """The input's factors as (first qubit, state) pairs, in qubit order."""
    factors = [state] if isinstance(state, PureState) else list(state)
    total = sum(f.width for f in factors)
    if total != circuit.qubit_count:
        raise ValueError(f"input width {total} != circuit qubits {circuit.qubit_count}")
    firsts = itertools.accumulate([f.width for f in factors[:-1]], initial=0)
    return list(zip(firsts, factors))


def _classical(circuit: CircuitIR, factors) -> list[tuple[int, np.ndarray]]:
    """Control-only qubits in qubit order, each with its branch weights.

    A qubit qualifies if it is a width-1 factor, only one-qubit gates U act
    on it before its first use as the control of a CNOT or CSWAP, and it is
    only a control from then on. Its weights are |(U phi)[b]|^2.
    """
    amps = {first: f.amplitudes for first, f in factors if f.width == 1}
    controls = set()
    for gate in circuit.gates:
        for i, q in enumerate(gate.qubits):
            if q not in amps:
                continue
            if len(gate.qubits) == 1 and q not in controls:
                amps[q] = gate.matrix @ amps[q]
            elif i == 0 and gate.kind in _UNCONTROLLED:
                controls.add(q)
            else:
                del amps[q]
    return [(q, np.abs(amps[q]) ** 2) for q in sorted(controls & amps.keys())]


def _rewrite(circuit: CircuitIR, fixed: dict[int, int]) -> tuple[list, list[int]]:
    """The gates left once each qubit in ``fixed`` holds its bit, as (kind,
    storage qubits) pairs, and the wire map: qubit q ends in storage qubit
    wire[q].

    A fixed qubit's one-qubit prefix is dropped (its branch weight covers
    it); a gate it controls is dropped at 0 and loses its control at 1.
    Every SWAP exchanges two entries of the wire map, so no amplitude moves.
    """
    wire = list(range(circuit.qubit_count))
    gates = []
    for gate in circuit.gates:
        kind, qubits = gate.kind, gate.qubits
        if qubits[0] in fixed:
            if len(qubits) == 1 or not fixed[qubits[0]]:
                continue
            kind, qubits = _UNCONTROLLED[kind], qubits[1:]
        if kind == "SWAP":
            a, b = qubits
            wire[a], wire[b] = wire[b], wire[a]
        else:
            gates.append((kind, tuple(wire[q] for q in qubits)))
    return gates, wire


def _evolve(gates, factors) -> tuple[np.ndarray, dict[int, int]]:
    """Run ``gates`` ((kind, qubits) pairs) on one buffer that starts as the
    product of the input factors.

    ``factors`` are (first qubit, state) pairs in qubit order covering every
    qubit the gates touch. Returns the state over all their k qubits (flat,
    2**k amplitudes, in qubit order) and each qubit's position in it, 0 most
    significant.
    """
    order = [q for first, f in factors for q in range(first, first + f.width)]
    pos = {q: i for i, q in enumerate(order)}
    psi = np.zeros(1 << len(order), dtype=np.complex128)
    psi[0] = 1.0
    n = 1
    for _, factor in reversed(factors):
        # psi[:n] -> f (x) psi[:n]: the factor becomes the most significant
        # axes; the tail is written before the head it reads is scaled
        f = factor.amplitudes
        if f[1:].any():
            np.multiply(f[1:, None], psi[:n], out=psi[n : f.size * n].reshape(-1, n))
        if f[0] != 1:
            psi[:n] *= f[0]
        n *= f.size
    buf = np.empty((2, _BLOCK), dtype=np.complex128)
    for kind, qubits in gates:
        _apply_gate(psi, kind, tuple(pos[q] for q in qubits), len(pos), buf)
    return psi, pos


def _marginal(psi: np.ndarray, keep, qubit_count: int) -> np.ndarray:
    """|psi|^2 summed over every axis but ``keep``, shaped (2,) * len(keep)
    in ``keep`` order, reduced block by block and checked to sum to 1."""
    order = sorted(keep)
    # kept qubits sit on the odd axes, the unmeasured runs on the even ones;
    # each block's |psi|^2 is written with the kept axes first, so its sum
    # runs along contiguous rows
    psi = _split(psi, order, qubit_count)
    axes = list(range(1, psi.ndim, 2)) + list(range(0, psi.ndim, 2))
    probs = np.zeros((2,) * len(keep))
    buf = np.empty(_BLOCK)
    for ix in _blocks(psi.shape):
        block = psi[ix].transpose(axes)
        p = buf[: block.size].reshape(block.shape)
        np.abs(block, out=p)
        np.square(p, out=p)
        kept = block.shape[: len(keep)]
        probs[ix[1::2]] += p.reshape(math.prod(kept), -1).sum(axis=1).reshape(kept)
    # the state is never wrapped in a validated PureState, so the marginal
    # is checked in its place
    total = probs.sum()
    if not np.isfinite(total) or abs(total - 1.0) > 2 * NORM_ATOL:
        raise ValueError(f"measured marginal sums to {total!r}, not 1")
    return np.transpose(probs, [order.index(i) for i in keep])


def _branch_marginal(gates, wire, factors, reads, qubit_count: int) -> np.ndarray:
    """Marginal over the qubits ``reads`` (in that order) of one branch: the
    outer product of its components, each evolved on its own buffer."""
    parent = list(range(qubit_count))

    def root(q: int) -> int:
        while parent[q] != q:
            parent[q] = q = parent[parent[q]]
        return q

    groups = [range(first, first + f.width) for first, f in factors]
    for group in groups + [qubits for _, qubits in gates]:
        r = root(group[0])
        for q in group[1:]:
            parent[root(q)] = r
    # a component no measurement reads is never evolved
    read_by: dict[int, list[int]] = {}
    for q in reads:
        read_by.setdefault(root(wire[q]), []).append(q)
    parts = {r: ([], []) for r in read_by}
    for first, f in factors:
        if root(first) in parts:
            parts[root(first)][1].append((first, f))
    for gate in gates:
        if root(gate[1][0]) in parts:
            parts[root(gate[1][0])][0].append(gate)
    marginal, order = np.ones(()), []
    for r, qs in read_by.items():
        psi, pos = _evolve(*parts[r])
        p = _marginal(psi, [pos[wire[q]] for q in qs], len(pos))
        marginal = np.multiply.outer(marginal, p)
        order += qs
    return np.transpose(marginal, [order.index(q) for q in reads])


def run_statevector(circuit: CircuitIR, input_state: InputState) -> PureState:
    """Evolve the input through every gate and return the exact output state,
    in qubit order.

    ``input_state`` is a state or its factors in qubit order. The input is
    left unchanged; the output is a new buffer.
    """
    factors = _factors(circuit, input_state)
    check_size(circuit.qubit_count)
    psi, _ = _evolve([(g.kind, g.qubits) for g in circuit.gates], factors)
    return PureState(psi, circuit.qubit_count)


def measured_distribution(
    circuit: CircuitIR, input_state: InputState
) -> tuple[tuple[str, ...], np.ndarray]:
    """Exact marginal over the measured qubits, in declared label order.

    ``input_state`` is a state or its factors in qubit order. Returns
    (labels, p) where p[i] is the probability of the outcome whose bits are
    row i of ``circuits.index_bits``: the first label's bit is the most
    significant bit of i.
    """
    if not circuit.measured:
        raise ValueError("circuit declares no measured qubits")
    factors = _factors(circuit, input_state)
    q = circuit.qubit_count
    check_size(q)
    # at most 2**q / (_BRANCH_BLOCKS * _BLOCK) branches, so their Python work
    # stays below that of walking the full state in blocks
    cap = max(0, ((1 << q) // (_BRANCH_BLOCKS * _BLOCK)).bit_length() - 1)
    branched = _classical(circuit, factors)[:cap] if cap else []
    qubits = [qb for qb, _ in branched]
    measured = circuit.measured_qubits
    reads = [qb for qb in measured if qb not in qubits]
    probs = np.zeros((2,) * len(measured))
    for bits in np.ndindex(*(2,) * len(branched)):
        weight = math.prod(w[b] for (_, w), b in zip(branched, bits))
        if weight == 0:
            continue
        fixed = dict(zip(qubits, bits))
        gates, wire = _rewrite(circuit, fixed)
        at = tuple(fixed.get(qb, slice(None)) for qb in measured)
        probs[at] += weight * _branch_marginal(gates, wire, factors, reads, q)
    return circuit.labels, probs.reshape(-1)


def draw_stream(seed: int, word: int = 0, base: int = 0) -> np.random.Philox:
    """Philox keyed by ``seed``, at raw word ``word`` of the stream whose
    counter starts at ``base`` (4 words per counter value)."""
    bits = np.random.Philox(key=np.uint64(seed), counter=base + word // 4)
    bits.random_raw(word % 4)
    return bits


def draw_thresholds(p: np.ndarray) -> np.ndarray:
    """ceil(p * 2**53) as uint64 (0 for p < 0). A raw word w reaches p when
    ``w >> 11`` reaches this: numpy's ``random() >= p`` on w, as integers,
    since its double is (w >> 11) * 2**-53 and an integer u has
    u * 2**-53 >= p exactly when u >= ceil(p * 2**53)."""
    t = np.ldexp(p, 53)
    np.ceil(t, out=t)
    np.maximum(t, 0.0, out=t)
    return t.astype(np.uint64)


def sample_from_distribution(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Draw i.i.d. outcome indices: shot i's index is the number of
    cumulative probabilities that raw word i of the seed's stream reaches."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"probabilities sum to {total}, not 1")
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    words = draw_stream(seed).random_raw(shots)
    words >>= np.uint64(11)
    return np.searchsorted(draw_thresholds(cdf), words, side="right")


def project_qubits(state: PureState, qubits, bits) -> tuple[float, PureState | None]:
    """Condition on measuring ``qubits`` (in the given order) as ``bits``,
    one 0/1 value per qubit (a row of ``circuits.index_bits``).

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
