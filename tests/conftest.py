import numpy as np
import pytest

from multiswap.fixtures import load_ensemble
from multiswap.states import PureState, StateEnsemble


def random_state(rng: np.random.Generator, width: int) -> PureState:
    v = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return PureState(v / np.linalg.norm(v), width)


def random_ensemble(rng: np.random.Generator, n: int, width: int = 1) -> StateEnsemble:
    return StateEnsemble(tuple(random_state(rng, width) for _ in range(n)))


def outcome_count(counts, bitstring: str) -> int:
    """Shots a CountsTable records for one outcome bitstring (0 if absent)."""
    row = np.array([int(b) for b in bitstring], dtype=np.uint8)
    return int(counts.counts[(counts.bits == row).all(axis=1)].sum())


@pytest.fixture(scope="session")
def d0():
    return load_ensemble(0)
