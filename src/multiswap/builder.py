"""Recursive multi-state swap network: construction, padding, and decoding.

The network routes n = 2**k input registers so that, conditioned on the
measured value of 2(k-1) control ancillas, every adjacent register pair
(q_{2i-1}, q_{2i}) holds one specific input pair. Two swap rules drive it:
with the registers split into four equal groups, rule 1 exchanges groups 2
and 3 pointwise and rule 2 exchanges groups 2 and 4 pointwise. Each level
applies both rules under ancilla control and recurses into the two halves.

The baseline scheme uses three ancillas per level and one measured slot.
Its four-register block has three controlled swaps, each driven by its own
ancilla, arranged so every one of the six register pairs reaches registers
(1, 2) for some ancilla outcome. Larger inputs apply the block within groups
first (parallel groups share the level's ancilla triple), then across the
groups' lead registers, and finish with one swap test on registers (1, 2).

``layout_plan`` plans either scheme from this module's wiring, and
``assemble`` turns a plan into its gate list: the controlled swaps, then the
``swaptest`` fragment of the plan's final variant placed on each slot.
``LayoutPlan.measured`` is the one measured layout.

Within a level's ancilla pair, the first ancilla controls the rule-2 fan and
the second the rule-1 fan, with the rule-1 fan earlier in gate order; this
is the assignment the recorded reference run and the bundled reference
outcome tables follow. The decoder table is always derived from the
constructed wiring, never transcribed, so those tables serve as cross-checks
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitIR, Gate, index_bits
from .states import PureState, StateEnsemble, basis_state
from .swaptest import build_swap_test

#: swap rule kinds: rule1 exchanges groups 2 and 3, rule2 exchanges 2 and 4
SWAP_RULES = ("rule1", "rule2")

#: constructions: the new network and the baseline (three ancillas per level)
SCHEMES = ("new", "san")

#: final swap-test variants a full circuit can end with
FINAL_VARIANTS = ("standard", "destructive")

#: largest decoder table ``decode_all`` builds, in labels
#: (2**d ancilla outcomes times n registers): n = 256 for the new scheme
MAX_TABLE_ENTRIES = 1 << 22
#: ancilla outcomes ``pair_table`` decodes at once
_OUTCOME_BLOCK = 1 << 15


def four_groups(registers) -> tuple[tuple[int, ...], ...]:
    """Split contiguous registers into the four equal ordered groups."""
    regs = tuple(registers)
    if len(regs) < 4 or len(regs) % 4:
        raise ValueError(f"need a multiple of four registers, got {len(regs)}")
    q = len(regs) // 4
    return regs[:q], regs[q : 2 * q], regs[2 * q : 3 * q], regs[3 * q :]


def rule_swaps(rule: str, groups) -> list[tuple[int, int]]:
    """Pointwise register exchanges a swap rule performs on the four groups."""
    g1, g2, g3, g4 = groups
    if rule == "rule1":
        return list(zip(g2, g3))
    if rule == "rule2":
        return list(zip(g2, g4))
    raise ValueError(f"unknown swap rule {rule!r}; expected one of {SWAP_RULES}")


@dataclass(frozen=True)
class LayoutPlan:
    """Wiring plan for a built circuit; equally the decoder's ground truth.
    ``layout_plan`` builds it.

    ``controlled_swaps`` lists register-level controlled swaps in gate order
    as (ancilla ordinal, register a, register b) with 1-based registers.
    ``slots`` are the register pairs measured by the final swap tests.
    """

    scheme: str
    n: int
    width: int
    ancilla_count: int
    controlled_swaps: tuple[tuple[int, int, int], ...]
    slots: tuple[tuple[int, int], ...]
    final_variant: str | None = None

    def register_qubits(self, reg: int) -> range:
        """Qubits of 1-based register ``reg``."""
        start = self.ancilla_count + (reg - 1) * self.width
        return range(start, start + self.width)

    @property
    def data_qubit_count(self) -> int:
        return self.n * self.width

    @property
    def result_qubit_base(self) -> int:
        return self.ancilla_count + self.data_qubit_count

    @property
    def total_qubits(self) -> int:
        extra = len(self.slots) if self.final_variant == "standard" else 0
        return self.ancilla_count + self.data_qubit_count + extra

    @property
    def measured(self) -> tuple[tuple[int, str], ...]:
        """The measured layout: (qubit, label) pairs in outcome-bit order.
        Ancilla s1.. come first, then the result bit r1.. of each slot's
        standard test, or every data qubit of a destructive run: q{reg}, or
        q{reg}.{k} for registers wider than one qubit."""
        pairs = [(i, f"s{i + 1}") for i in range(self.ancilla_count)]
        if self.final_variant == "standard":
            pairs += [(self.result_qubit_base + i, f"r{i + 1}") for i in range(len(self.slots))]
        elif self.final_variant == "destructive":
            pairs += [
                (q, f"q{reg}" if self.width == 1 else f"q{reg}.{k}")
                for reg in range(1, self.n + 1)
                for k, q in enumerate(self.register_qubits(reg))
            ]
        return tuple(pairs)

    def measured_labels(self) -> tuple[str, ...]:
        return tuple(label for _, label in self.measured)


def padded_size(m: int) -> int:
    """Registers the network runs for m inputs: the smallest power of two
    >= max(m, 4)."""
    return max(4, 1 << (m - 1).bit_length())


def pad_inputs(ensemble: StateEnsemble) -> StateEnsemble:
    """Pad to ``padded_size(m)`` registers with |0...0> states, appended as
    rows, so the m real inputs keep labels 1..m."""
    m = ensemble.n
    n = padded_size(m)
    if n == m:
        return ensemble
    pads = np.zeros((n - m, ensemble.amplitudes.shape[1]))
    pads[:, 0] = 1.0
    return StateEnsemble(np.concatenate([ensemble.amplitudes, pads]))


def _network_swaps(n: int) -> tuple[tuple[int, int, int], ...]:
    """Register-level controlled swaps of the n-input network, in gate order."""
    k = n.bit_length() - 1
    swaps: list[tuple[int, int, int]] = []
    for level in range(1, k):
        rule2_anc = 2 * (level - 1)      # first ancilla of the level's pair
        rule1_anc = 2 * (level - 1) + 1  # second ancilla of the pair
        block = n >> (level - 1)
        rule1, rule2 = [], []
        for start in range(1, n + 1, block):
            groups = four_groups(range(start, start + block))
            rule1 += [(rule1_anc, a, b) for a, b in rule_swaps("rule1", groups)]
            rule2 += [(rule2_anc, a, b) for a, b in rule_swaps("rule2", groups)]
        swaps += rule1 + rule2
    return tuple(swaps)


#: the baseline's four-register block: (ancilla offset within the triple,
#: position pair), in gate order; positions are 1-based within the block.
#: Of all one-swap-per-ancilla wirings, this is the one that agrees with the
#: bundled reference outcome table in 7 of its 8 cells; the table is
#: internally inconsistent, so no wiring matches all 8 (``test_san`` pins it).
U4_BLOCK = ((0, (1, 3)), (2, (2, 3)), (1, (1, 4)))


def _san_groups(n: int) -> list[list[tuple[int, int, int, int]]]:
    """Register quadruples per stage; stage j acts on stage j-1 lead pairs."""
    stages = []
    groups = [(4 * m + 1, 4 * m + 2, 4 * m + 3, 4 * m + 4) for m in range(n // 4)]
    stages.append(groups)
    while len(groups) > 1:
        groups = [
            (groups[2 * m][0], groups[2 * m][1], groups[2 * m + 1][0], groups[2 * m + 1][1])
            for m in range(len(groups) // 2)
        ]
        stages.append(groups)
    return stages


def _san_swaps(n: int) -> tuple[tuple[int, int, int], ...]:
    """Register-level controlled swaps of the baseline on n registers, in
    gate order."""
    swaps: list[tuple[int, int, int]] = []
    for stage_idx, groups in enumerate(_san_groups(n)):
        triple_base = 3 * stage_idx
        for quad in groups:
            for offset, (pa, pb) in U4_BLOCK:
                swaps.append((triple_base + offset, quad[pa - 1], quad[pb - 1]))
    return tuple(swaps)


def check_final_variant(final_variant) -> None:
    """Refuse a final variant outside ``FINAL_VARIANTS``, ``None`` included."""
    if final_variant not in FINAL_VARIANTS:
        raise ValueError(
            f"unknown final variant {final_variant!r}; expected one of {FINAL_VARIANTS}"
        )


def _ancilla_count(
    scheme: str, n: int, width: int = 1, final_variant: str | None = None
) -> int:
    """Check a layout's configuration and return its ancilla count: two per
    level for the new network and three for the baseline, n = 2**k having
    k - 1 levels."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if n < 4 or n & (n - 1):
        raise ValueError(f"register count must be a power of two >= 4, got {n}; pad first")
    if width < 1:
        raise ValueError(f"register width must be >= 1, got {width}")
    if final_variant is not None:
        check_final_variant(final_variant)
    return (2 if scheme == "new" else 3) * (n.bit_length() - 2)


def layout_plan(
    scheme: str, n: int, width: int = 1, final_variant: str | None = None
) -> LayoutPlan:
    """Layout plan of ``scheme`` on n registers of ``width`` qubits, ending in
    the final swap tests ``final_variant`` names (none for the bare network).

    This is the one constructor of a ``LayoutPlan`` and the one place its
    configuration is validated; no gates are built (``assemble`` does that).
    """
    d = _ancilla_count(scheme, n, width, final_variant)
    if scheme == "new":
        swaps = _network_swaps(n)
        slots = tuple((2 * i + 1, 2 * i + 2) for i in range(n // 2))
    else:
        swaps, slots = _san_swaps(n), ((1, 2),)
    return LayoutPlan(scheme, n, width, d, swaps, slots, final_variant)


def _swap_gates(plan: LayoutPlan) -> list[Gate]:
    gates = [Gate("H", (i,)) for i in range(plan.ancilla_count)]
    for anc, ra, rb in plan.controlled_swaps:
        for qa, qb in zip(plan.register_qubits(ra), plan.register_qubits(rb)):
            gates.append(Gate("CSWAP", (anc, qa, qb)))
    return gates


def assemble(plan: LayoutPlan) -> CircuitIR:
    """Gate list of a plan: ancilla prep, controlled swaps, then the
    ``swaptest`` fragment of its final variant (none for a bare network)
    placed on each slot; ``plan.measured`` is its measured layout."""
    roles = ["ancilla"] * plan.ancilla_count + ["data"] * plan.data_qubit_count
    gates = _swap_gates(plan)
    if plan.final_variant is not None:
        test = build_swap_test(plan.final_variant, plan.width)
        for i, (ra, rb) in enumerate(plan.slots):
            wires = [*plan.register_qubits(ra), *plan.register_qubits(rb)]
            if plan.final_variant == "standard":  # the verdict qubit comes first
                wires.insert(0, plan.result_qubit_base + i)
            gates += [Gate(g.kind, tuple(wires[q] for q in g.qubits)) for g in test.gates]
    roles += ["result"] * (plan.total_qubits - len(roles))
    return CircuitIR(len(roles), tuple(roles), tuple(gates), plan.measured)


def input_factors(ensemble: StateEnsemble, plan: LayoutPlan) -> list[PureState]:
    """The circuit's input as a product in qubit order: one |0> per ancilla,
    the input registers in order, then one |0> per result qubit."""
    if ensemble.n != plan.n or ensemble.width != plan.width:
        raise ValueError("ensemble does not match the layout plan (pad first)")
    extra = plan.total_qubits - plan.ancilla_count - plan.data_qubit_count
    zero = basis_state(1)
    inputs = [PureState(row, plan.width) for row in ensemble.amplitudes]
    return [zero] * plan.ancilla_count + inputs + [zero] * extra


def decode(plan: LayoutPlan, ancilla_bits) -> np.ndarray:
    """Input label held by every register under every given ancilla outcome.

    ``ancilla_bits`` is an (R, d) 0/1 array whose column i is ancilla
    s{i+1}. Returns an (n, R) array whose entry [p, r] is the 1-based input
    label in register p+1 after the controlled swaps of outcome r. This is
    the authoritative decoder: a classical replay of
    ``plan.controlled_swaps``, the same wiring that generates the gates,
    never transcribed from any reference table.

    Each controlled swap exchanges two label rows in place by masked XOR,
    the mask being all ones in the columns whose ancilla fired.
    """
    fire = np.asarray(ancilla_bits, dtype=bool)
    if fire.ndim != 2 or fire.shape[1] != plan.ancilla_count:
        raise ValueError(
            f"ancilla bits must have {plan.ancilla_count} columns, got shape {fire.shape}"
        )
    dtype = np.min_scalar_type(plan.n)
    masks = fire.T.astype(dtype, order="C")
    masks *= np.iinfo(dtype).max
    labels = np.arange(1, plan.n + 1, dtype=dtype)
    labels = np.repeat(labels[:, None], fire.shape[0], axis=1)
    scratch = np.empty(fire.shape[0], dtype=dtype)
    for anc, ra, rb in plan.controlled_swaps:
        a, b = labels[ra - 1], labels[rb - 1]
        np.bitwise_xor(a, b, out=scratch)
        scratch &= masks[anc]
        a ^= scratch
        b ^= scratch
    if plan.scheme == "new" and (labels[0] != 1).any():
        moved = np.flatnonzero(labels[0] != 1)[:4]
        raise AssertionError(f"register 1 moved under outcome rows {moved.tolist()}")
    return labels


def decode_all(plan: LayoutPlan) -> np.ndarray:
    """``decode`` of every ancilla outcome: the (n, 2**d) label array whose
    column r is outcome r, s1 being its most significant bit. Tables that
    ``check_table`` refuses are refused before any label is built."""
    check_table(plan.scheme, plan.n)
    d = plan.ancilla_count
    return decode(plan, index_bits(np.arange(1 << d), d))


def check_table(scheme: str, n: int):
    """Refuse the decoder table of ``scheme`` on n registers (2**d outcomes
    x n registers) above ``MAX_TABLE_ENTRIES`` labels, or a bad scheme or n;
    its size follows from the configuration, so no plan is needed."""
    d = _ancilla_count(scheme, n)
    entries = n << d
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"decoder table of 2^{d} outcomes x {n} registers "
            f"({entries} entries) exceeds the limit of {MAX_TABLE_ENTRIES} entries"
        )


def pair_rank(n: int, i, j):
    """The one pair index: the 0-based row of the pair i < j of labels 1..n among
    the n(n-1)/2 pairs in ``itertools.combinations`` order, (i-1)(2n-i)/2 + j-i-1.
    Exact in int64 for int64 arrays i and j; a pair has no other address."""
    return (i - 1) * (2 * n - i) // 2 + j - i - 1


def slot_pairs(plan: LayoutPlan, labels, out=None) -> np.ndarray:
    """The ``pair_rank`` of the labels in each slot's two registers, the smaller i
    and larger j: the (R, slots) array for an (n, R) ``decode`` label array,
    written into the (slots, R) ``out`` if given."""
    dtype = np.min_scalar_type(pair_rank(plan.n, plan.n - 1, plan.n))
    if out is None:
        out = np.empty((len(plan.slots), labels.shape[1]), dtype)
    # offset[i] + j is the rank of (i, j); entries wrap modulo the dtype's range
    offset = pair_rank(plan.n, np.arange(plan.n + 1, dtype=np.int64), 0).astype(dtype)
    for row, (ra, rb) in zip(out, plan.slots):  # row by row: no (slots, R) temporaries
        a, b = labels[ra - 1], labels[rb - 1]
        np.take(offset, np.minimum(a, b), out=row, mode="clip")  # labels 1..n never clip
        row += np.maximum(a, b)
    return out.T


def pair_table(plan: LayoutPlan, ancilla_bits) -> np.ndarray:
    """``slot_pairs`` of ``decode`` for (R, d) ancilla bits, the one route from outcomes to
    pair ranks: ``_OUTCOME_BLOCK`` at a time into a (slots, R) table, returned transposed."""
    dtype = np.min_scalar_type(pair_rank(plan.n, plan.n - 1, plan.n))
    table = np.empty((len(plan.slots), len(ancilla_bits)), dtype)
    for lo in range(0, len(ancilla_bits), _OUTCOME_BLOCK):
        labels = decode(plan, ancilla_bits[lo : lo + _OUTCOME_BLOCK])
        slot_pairs(plan, labels, table[:, lo : lo + labels.shape[1]])
    return table.T


def pair_coverage(plan: LayoutPlan) -> np.ndarray:
    """int64 vector of n(n-1)/2 entries whose entry ``pair_rank(n, i, j)`` counts
    the (ancilla outcome, slot) entries that test the unordered pair (i, j); it
    sums to 2**d times the slot count. Tables that ``check_table`` refuses are
    refused."""
    check_table(plan.scheme, plan.n)
    pairs = pair_table(plan, index_bits(np.arange(1 << plan.ancilla_count), plan.ancilla_count))
    return np.bincount(pairs.ravel(), minlength=plan.n * (plan.n - 1) // 2)
