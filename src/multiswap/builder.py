"""Recursive multi-state swap network: construction, padding, and decoding.

The network routes n = 2**k input registers so that, conditioned on the
measured value of 2(k-1) control ancillas, every adjacent register pair
(q_{2i-1}, q_{2i}) holds one specific input pair. Two swap rules drive it:
with the registers split into four equal groups, rule 1 exchanges groups 2
and 3 pointwise and rule 2 exchanges groups 2 and 4 pointwise. Each level
applies both rules under ancilla control and recurses into the two halves.

Within a level's ancilla pair, the first ancilla controls the rule-2 fan and
the second the rule-1 fan, with the rule-1 fan earlier in gate order; this
is the assignment the recorded reference run and the bundled reference
outcome tables follow. The decoder table is always derived from the
constructed wiring, never transcribed, so those tables serve as cross-checks
only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .circuits import CircuitIR, Gate
from .states import PureState, StateEnsemble, basis_state, tensor_product

#: swap rule kinds: rule1 exchanges groups 2 and 3, rule2 exchanges 2 and 4
SWAP_RULES = ("rule1", "rule2")

#: final swap-test variants a full circuit can end with
FINAL_VARIANTS = ("standard", "destructive")

#: largest decoder table ``derive_permutation_table`` builds, in labels
#: (2**d ancilla outcomes times n registers): n = 256 for the new scheme
MAX_TABLE_ENTRIES = 1 << 22


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

    ``controlled_swaps`` lists register-level controlled swaps in gate order
    as (ancilla ordinal, register a, register b) with 1-based registers.
    ``slots`` are the register pairs measured by the final swap tests.
    """

    scheme: str
    n: int
    k: int
    width: int
    ancilla_count: int
    controlled_swaps: tuple[tuple[int, int, int], ...]
    slots: tuple[tuple[int, int], ...]
    final_variant: str | None = None

    @property
    def register_swap_count(self) -> int:
        """Controlled swaps at register granularity; qubit-level CSWAPs are
        this times the register width."""
        return len(self.controlled_swaps)

    @property
    def data_qubit_base(self) -> int:
        return self.ancilla_count

    def register_qubits(self, reg: int) -> range:
        """Qubits of 1-based register ``reg``."""
        start = self.data_qubit_base + (reg - 1) * self.width
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
    def ancilla_labels(self) -> tuple[str, ...]:
        return tuple(f"s{i + 1}" for i in range(self.ancilla_count))

    def measured_labels(self) -> tuple[str, ...]:
        labels = list(self.ancilla_labels)
        if self.final_variant == "standard":
            labels += [f"r{i + 1}" for i in range(len(self.slots))]
        elif self.final_variant == "destructive":
            for reg in range(1, self.n + 1):
                if self.width == 1:
                    labels.append(f"q{reg}")
                else:
                    labels += [f"q{reg}.{k}" for k in range(self.width)]
        return tuple(labels)


@dataclass(frozen=True)
class PermutationTable:
    """Map from ancilla outcomes to the register permutation they select.

    ``rows[outcome][p]`` is the 1-based input label sitting in register p+1
    after the controlled swaps; ``slot_map[outcome]`` lists the ordered label
    pairs tested at each slot.
    """

    ancilla_count: int
    slots: tuple[tuple[int, int], ...]
    rows: dict[str, tuple[int, ...]]
    slot_map: dict[str, tuple[tuple[int, int], ...]]

    @property
    def n(self) -> int:
        return len(next(iter(self.rows.values())))

    def outcomes(self) -> list[str]:
        return sorted(self.rows)


def pad_inputs(ensemble: StateEnsemble) -> tuple[StateEnsemble, tuple[int, ...]]:
    """Pad to the smallest power of two >= max(m, 4) with |0...0> states.

    Returns the padded ensemble and the 1-based labels of the padded entries.
    """
    m = ensemble.n
    n = 4
    while n < m:
        n *= 2
    if n == m:
        return ensemble, ()
    pad = basis_state(ensemble.width)
    states = ensemble.states + (pad,) * (n - m)
    return StateEnsemble(states), tuple(range(m + 1, n + 1))


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


def _require_pow2(n: int):
    if n < 4 or n & (n - 1):
        raise ValueError(f"register count must be a power of two >= 4, got {n}; pad first")


def _swap_gates(plan: LayoutPlan) -> list[Gate]:
    gates = [Gate("H", (i,)) for i in range(plan.ancilla_count)]
    for anc, ra, rb in plan.controlled_swaps:
        for qa, qb in zip(plan.register_qubits(ra), plan.register_qubits(rb)):
            gates.append(Gate("CSWAP", (anc, qa, qb)))
    return gates


def _final_test_gates(plan: LayoutPlan) -> tuple[list[Gate], list[tuple[int, str]]]:
    gates: list[Gate] = []
    measured: list[tuple[int, str]] = [
        (i, lbl) for i, lbl in enumerate(plan.ancilla_labels)
    ]
    if plan.final_variant == "standard":
        for i, (ra, rb) in enumerate(plan.slots):
            r = plan.result_qubit_base + i
            gates.append(Gate("H", (r,)))
            for qa, qb in zip(plan.register_qubits(ra), plan.register_qubits(rb)):
                gates.append(Gate("CSWAP", (r, qa, qb)))
            gates.append(Gate("H", (r,)))
            measured.append((r, f"r{i + 1}"))
    elif plan.final_variant == "destructive":
        for ra, rb in plan.slots:
            for qa, qb in zip(plan.register_qubits(ra), plan.register_qubits(rb)):
                gates.append(Gate("CNOT", (qa, qb)))
                gates.append(Gate("H", (qa,)))
        labels = plan.measured_labels()[plan.ancilla_count :]
        data = [q for reg in range(1, plan.n + 1) for q in plan.register_qubits(reg)]
        measured += list(zip(data, labels))
    else:
        raise ValueError(
            f"unknown final variant {plan.final_variant!r}; expected one of {FINAL_VARIANTS}"
        )
    return gates, measured


def assemble(plan: LayoutPlan) -> CircuitIR:
    """Gate list of a plan: ancilla prep, controlled swaps, then the final
    swap tests its variant names (none for a bare network)."""
    roles = ["ancilla"] * plan.ancilla_count + ["data"] * plan.data_qubit_count
    gates = _swap_gates(plan)
    if plan.final_variant is None:
        measured = [(i, lbl) for i, lbl in enumerate(plan.ancilla_labels)]
    else:
        extra, measured = _final_test_gates(plan)
        gates += extra
        if plan.final_variant == "standard":
            roles += ["result"] * len(plan.slots)
    return CircuitIR(len(roles), tuple(roles), tuple(gates), tuple(measured))


def build_network(n: int, width: int = 1) -> tuple[CircuitIR, LayoutPlan]:
    """The bare n-input swap network: ancilla prep plus controlled swaps."""
    _require_pow2(n)
    k = n.bit_length() - 1
    plan = LayoutPlan(
        scheme="new",
        n=n,
        k=k,
        width=width,
        ancilla_count=2 * (k - 1),
        controlled_swaps=_network_swaps(n),
        slots=tuple((2 * i + 1, 2 * i + 2) for i in range(n // 2)),
        final_variant=None,
    )
    return assemble(plan), plan


def build_u4(width: int = 1) -> tuple[CircuitIR, LayoutPlan]:
    """Base case: four registers, two ancillas, one rule-1 and one rule-2 swap."""
    return build_network(4, width)


def build_un(
    n: int, width: int = 1, final_variant: str = "standard"
) -> tuple[CircuitIR, LayoutPlan]:
    """Full circuit: swap network followed by a swap test on every slot."""
    _, plan = build_network(n, width)
    plan = replace(plan, final_variant=final_variant)
    return assemble(plan), plan


def input_factors(ensemble: StateEnsemble, plan: LayoutPlan) -> list[PureState]:
    """The circuit's input as a product in qubit order: one |0> per ancilla,
    the input registers in order, then one |0> per result qubit."""
    if ensemble.n != plan.n or ensemble.width != plan.width:
        raise ValueError("ensemble does not match the layout plan (pad first)")
    extra = plan.total_qubits - plan.ancilla_count - plan.data_qubit_count
    zero = basis_state(1)
    return [zero] * plan.ancilla_count + list(ensemble.states) + [zero] * extra


def initial_state(ensemble: StateEnsemble, plan: LayoutPlan) -> PureState:
    """The dense input state: the tensor product of ``input_factors``."""
    return tensor_product(input_factors(ensemble, plan))


def decode(plan: LayoutPlan, ancilla_bits) -> np.ndarray:
    """Input label held by every register under every given ancilla outcome.

    ``ancilla_bits`` is an (R, d) 0/1 array whose column i is ancilla
    s{i+1}. Returns an (n, R) array whose entry [p, r] is the 1-based input
    label in register p+1 after the controlled swaps of outcome r. This is
    the authoritative decoder: a classical replay of
    ``plan.controlled_swaps``, the same wiring that generates the gates,
    never transcribed from any reference table.
    """
    fire = np.asarray(ancilla_bits, dtype=bool)
    if fire.ndim != 2 or fire.shape[1] != plan.ancilla_count:
        raise ValueError(
            f"ancilla bits must have {plan.ancilla_count} columns, got shape {fire.shape}"
        )
    fire = np.ascontiguousarray(fire.T)
    labels = np.arange(1, plan.n + 1, dtype=np.min_scalar_type(plan.n))
    labels = np.repeat(labels[:, None], fire.shape[1], axis=1)
    for anc, ra, rb in plan.controlled_swaps:
        a, b = labels[ra - 1], labels[rb - 1]
        labels[ra - 1], labels[rb - 1] = np.where(fire[anc], b, a), np.where(fire[anc], a, b)
    if plan.scheme == "new" and (labels[0] != 1).any():
        moved = np.flatnonzero(labels[0] != 1)[:4]
        raise AssertionError(f"register 1 moved under outcome rows {moved.tolist()}")
    return labels


def derive_permutation_table(plan: LayoutPlan) -> PermutationTable:
    """Audit view of the decoder: ``decode`` applied to every ancilla outcome,
    keyed by outcome bitstring. Tables above ``MAX_TABLE_ENTRIES`` labels
    (2**d outcomes times n registers) are refused before any is built."""
    entries = plan.n << plan.ancilla_count
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(
            f"decoder table of 2^{plan.ancilla_count} outcomes x {plan.n} registers "
            f"({entries} entries) exceeds the limit of {MAX_TABLE_ENTRIES} entries"
        )
    bits = np.array(list(itertools.product((0, 1), repeat=plan.ancilla_count)))
    columns = decode(plan, bits).T.tolist()
    rows: dict[str, tuple[int, ...]] = {}
    slot_map: dict[str, tuple[tuple[int, int], ...]] = {}
    for outcome_bits, labels in zip(bits.tolist(), columns):
        outcome = "".join(map(str, outcome_bits))
        rows[outcome] = tuple(labels)
        slot_map[outcome] = tuple((labels[a - 1], labels[b - 1]) for a, b in plan.slots)
    return PermutationTable(plan.ancilla_count, plan.slots, rows, slot_map)


def pair_coverage_map(
    table: PermutationTable, pad_labels: tuple[int, ...] = ()
) -> dict[tuple[int, int], list[tuple[str, int]]]:
    """For every real unordered pair, the (outcome, slot) entries that test it.

    Pairs touching padded labels are excluded. A real pair with no coverage
    is a construction bug and raises.
    """
    padded = set(pad_labels)
    n = table.n
    real = [x for x in range(1, n + 1) if x not in padded]
    coverage: dict[tuple[int, int], list[tuple[str, int]]] = {
        (i, j): [] for i, j in itertools.combinations(real, 2)
    }
    for outcome in table.outcomes():
        for slot_idx, (a, b) in enumerate(table.slot_map[outcome]):
            if a in padded or b in padded:
                continue
            key = (min(a, b), max(a, b))
            coverage[key].append((outcome, slot_idx))
    missing = [pair for pair, entries in coverage.items() if not entries]
    if missing:
        raise AssertionError(f"uncovered real pairs {missing[:6]}: construction bug")
    return coverage
