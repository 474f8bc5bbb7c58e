"""Baseline multi-state scheme: three ancillas per level, one measured slot.

The four-register building block uses three controlled swaps, each driven by
its own ancilla, arranged so every one of the six register pairs reaches the
first two registers for some ancilla outcome. Larger inputs apply the block
within groups first (parallel groups share the level's ancilla triple), then
across the groups' lead registers, and finish with a single swap test on
registers (1, 2). This module holds the wiring (``controlled_swaps``);
``builder.layout_plan`` builds the baseline's plan from it.

The block wiring here is the unique arrangement, over all one-swap-per-
ancilla designs, that agrees with the bundled reference outcome table in 7
of its 8 cells; the table is internally inconsistent, so no wiring matches
all 8 (see search_u4_wirings, which the tests run to pin this down).
"""

from __future__ import annotations

import itertools

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


def controlled_swaps(n: int) -> tuple[tuple[int, int, int], ...]:
    """Register-level controlled swaps of the baseline on n registers, in gate
    order, as (ancilla ordinal, register a, register b)."""
    swaps: list[tuple[int, int, int]] = []
    for stage_idx, groups in enumerate(_san_groups(n)):
        triple_base = 3 * stage_idx
        for quad in groups:
            for offset, (pa, pb) in U4_BLOCK:
                swaps.append((triple_base + offset, quad[pa - 1], quad[pb - 1]))
    return tuple(swaps)


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
