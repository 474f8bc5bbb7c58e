"""Baseline multi-state scheme: three ancillas per level, one measured slot.

The four-register building block uses three controlled swaps, each driven by
its own ancilla, arranged so every one of the six register pairs reaches the
first two registers for some ancilla outcome. Larger inputs apply the block
within groups first (parallel groups share the level's ancilla triple), then
across the groups' lead registers, and finish with a single swap test on
registers (1, 2).

The block wiring here is the unique arrangement, over all one-swap-per-
ancilla designs, that agrees with the bundled reference outcome table in 7
of its 8 cells; the table is internally inconsistent, so no wiring matches
all 8 (see search_u4_wirings, which the tests run to pin this down).
"""

from __future__ import annotations

import itertools

from .builder import LayoutPlan, _require_pow2, assemble
from .circuits import CircuitIR

#: the four-register block: (ancilla offset within the triple, position pair),
#: in gate order; positions are 1-based within the block
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
    swaps: list[tuple[int, int, int]] = []
    for stage_idx, groups in enumerate(_san_groups(n)):
        triple_base = 3 * stage_idx
        for quad in groups:
            for offset, (pa, pb) in U4_BLOCK:
                swaps.append((triple_base + offset, quad[pa - 1], quad[pb - 1]))
    return tuple(swaps)


def san_plan(n: int, width: int = 1, final_variant: str | None = None) -> LayoutPlan:
    """Layout plan of the baseline scheme on n registers; no gates are built."""
    _require_pow2(n)
    k = n.bit_length() - 1
    return LayoutPlan(
        scheme="san",
        n=n,
        k=k,
        width=width,
        ancilla_count=3 * (k - 1),
        controlled_swaps=_san_swaps(n),
        slots=((1, 2),),
        final_variant=final_variant,
    )


def build_san_network(n: int, width: int = 1) -> tuple[CircuitIR, LayoutPlan]:
    plan = san_plan(n, width)
    return assemble(plan), plan


def build_san_u4(width: int = 1) -> tuple[CircuitIR, LayoutPlan]:
    """Four registers, three ancillas, three controlled swaps."""
    return build_san_network(4, width)


def build_san_un(
    n: int, width: int = 1, final_variant: str = "standard"
) -> tuple[CircuitIR, LayoutPlan]:
    """Baseline circuit with its single final swap test on registers (1, 2)."""
    plan = san_plan(n, width, final_variant)
    return assemble(plan), plan


def _block_rows(wiring) -> dict[str, tuple[int, int, int, int]]:
    rows = {}
    for bits in itertools.product("01", repeat=3):
        outcome = "".join(bits)
        labels = [1, 2, 3, 4]
        for offset, (pa, pb) in wiring:
            if outcome[offset] == "1":
                labels[pa - 1], labels[pb - 1] = labels[pb - 1], labels[pa - 1]
        rows[outcome] = tuple(labels)
    return rows


def block_outcome_rows() -> dict[str, tuple[int, int, int, int]]:
    """The implemented block's outcome table over the three ancilla bits."""
    return _block_rows(U4_BLOCK)


def search_u4_wirings(target_rows: dict[str, tuple[int, ...]]):
    """Exhaustively score every one-swap-per-ancilla block wiring.

    Considers all assignments of a position pair to each of the three
    ancillas and all gate orders, scoring by how many of the 8 target rows
    are reproduced. Returns (best_score, best_wirings) with wirings in the
    U4_BLOCK format. Used by tests to show the implemented wiring is optimal.
    """
    pairs = list(itertools.combinations(range(1, 5), 2))
    best_score = -1
    best: list[tuple] = []
    for targets in itertools.product(pairs, repeat=3):
        for order in itertools.permutations(range(3)):
            wiring = tuple((offset, targets[offset]) for offset in order)
            rows = _block_rows(wiring)
            score = sum(rows[o] == tuple(target_rows[o]) for o in rows)
            if score > best_score:
                best_score, best = score, [wiring]
            elif score == best_score:
                best.append(wiring)
    return best_score, best
