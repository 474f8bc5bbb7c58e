import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multiswap
from multiswap import builder
from multiswap.fixtures import load_ensemble, reference_table_rows
from multiswap.states import PureState, StateEnsemble


SRC = str(Path(multiswap.__file__).resolve().parents[1])


def run_python(*args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports multiswap from
    ``SRC``, with text output captured. ``env`` (default: this process's
    environment) is copied, and ``SRC`` goes first on its ``PYTHONPATH``;
    empty entries are dropped, since one would put the working directory on
    ``sys.path``."""
    env = dict(os.environ if env is None else env)
    paths = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([SRC, *paths])
    kwargs.setdefault("timeout", 120)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, **kwargs)


def random_state(rng: np.random.Generator, width: int) -> PureState:
    v = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
    return PureState(v / np.linalg.norm(v), width)


def random_ensemble(rng: np.random.Generator, n: int, width: int = 1) -> StateEnsemble:
    return StateEnsemble([random_state(rng, width).amplitudes for _ in range(n)])


def overlap_matrix(ensemble: StateEnsemble) -> np.ndarray:
    """``ensemble.overlaps`` mirrored into the symmetric (n, n) matrix whose
    entry [i-1, j-1] is the overlap of labels i and j, with ones on the
    diagonal. The vector is put back through numpy's own upper-triangle
    order, not ``builder.pair_rank``, so a reference built on it stays
    independent of the pair index it checks."""
    i, j = np.triu_indices(ensemble.n, k=1)
    matrix = np.eye(ensemble.n)
    matrix[i, j] = matrix[j, i] = ensemble.overlaps
    return matrix


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
    """(outcomes, slots, 2) array of the ordered label pair each slot tests:
    the ``decode`` labels in the slot's two registers, in register order."""
    first, second = np.array(plan.slots).T - 1
    return np.stack([labels[first].T, labels[second].T], axis=-1).astype(np.int64)


def real_pair_coverage(plan, real=None):
    """(pairs, coverage): the pairs i < j of the real labels 1..real (all n
    labels by default) in combinations order and their entries of
    ``builder.pair_coverage``, at their ``builder.pair_rank`` over all n."""
    pairs = np.array(list(itertools.combinations(range(1, (real or plan.n) + 1), 2)))
    rank = builder.pair_rank(plan.n, pairs[:, 0], pairs[:, 1])
    return pairs, builder.pair_coverage(plan)[rank]


@pytest.fixture(scope="session")
def d0():
    return load_ensemble(0)
