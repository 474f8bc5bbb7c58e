import numpy as np
import pytest

from multiswap.builder import pair_coverage
from multiswap.fixtures import load_ensemble, reference_table_rows
from multiswap.states import PureState, StateEnsemble


def random_state(rng: np.random.Generator, width: int) -> PureState:
    v = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return PureState(v / np.linalg.norm(v), width)


def random_ensemble(rng: np.random.Generator, n: int, width: int = 1) -> StateEnsemble:
    return StateEnsemble([random_state(rng, width).amplitudes for _ in range(n)])


def outcome_count(counts, bitstring: str) -> int:
    """Shots a CountsTable records for one outcome bitstring (0 if absent)."""
    row = np.array([int(b) for b in bitstring], dtype=np.uint8)
    return int(counts.counts[(counts.bits == row).all(axis=1)].sum())


def reference_labels(name: str) -> np.ndarray:
    """A bundled reference table as a decoder label array: column r holds
    the permutation the table gives for outcome r."""
    rows = reference_table_rows(name)
    d = len(next(iter(rows)))
    assert sorted(rows) == [format(r, f"0{d}b") for r in range(1 << d)]
    return np.array([rows[outcome] for outcome in sorted(rows)]).T


def slot_pairs(plan, labels) -> np.ndarray:
    """(outcomes, slots, 2) array of the ordered label pair each slot tests."""
    first = labels[[a - 1 for a, _ in plan.slots]]
    second = labels[[b - 1 for _, b in plan.slots]]
    return np.stack([first.T, second.T], axis=-1)


def real_pair_coverage(plan, real=None):
    """(pairs, coverage): the pairs i < j of the real labels 1..real (all n
    labels by default) in combinations order and their entries of
    ``builder.pair_coverage``."""
    pairs = np.stack(np.triu_indices(real or plan.n, k=1), axis=1) + 1
    return pairs, pair_coverage(plan)[pairs[:, 0] - 1, pairs[:, 1] - 1]


@pytest.fixture(scope="session")
def d0():
    return load_ensemble(0)
