"""Pure-state algebra: amplitude vectors, tensor products, exact overlaps.

States are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Constructed states always carry unit norm to this tolerance.
NORM_ATOL = 1e-10


def _as_amplitudes(values, ndim: int = 1) -> np.ndarray:
    """``values`` as a complex128 array of ``ndim`` dimensions whose last
    axis, a power of two >= 2 long, holds finite amplitudes; not copied
    when it already is one."""
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != ndim:
        raise ValueError(f"amplitudes must have {ndim} dimension(s), got shape {v.shape}")
    size = v.shape[-1]
    if size < 2 or size & (size - 1):
        raise ValueError(f"amplitude vector length must be a power of two >= 2, got {size}")
    if not np.isfinite(v).all():
        raise ValueError("amplitudes must be finite")
    return v


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm state of ``width`` qubits (2**width complex amplitudes)."""

    amplitudes: np.ndarray
    width: int

    def __post_init__(self):
        v = _as_amplitudes(self.amplitudes)
        if v.size != 2**self.width:
            raise ValueError(f"width {self.width} needs {2**self.width} amplitudes, got {v.size}")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized (norm {norm!r}); use normalize()")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    def __repr__(self) -> str:
        return f"PureState(width={self.width}, amplitudes={np.round(self.amplitudes, 6)!r})"


def normalize(values) -> PureState:
    """Scale a raw non-zero amplitude vector to unit norm, preserving direction."""
    v = _as_amplitudes(values)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ValueError("unnormalizable: zero vector")
    v = v / norm
    return PureState(v, int(np.log2(v.size)))


def basis_state(width: int, index: int = 0) -> PureState:
    """Computational basis state |index> on ``width`` qubits."""
    if width < 1:
        raise ValueError("width must be >= 1")
    v = np.zeros(2**width, dtype=np.complex128)
    v[index] = 1.0
    return PureState(v, width)


def exact_overlap(a: PureState, b: PureState) -> float:
    """|<a|b>|**2 via the complex inner product. Requires equal widths."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def tensor_product(states) -> PureState:
    """Kronecker product of states in order; first factor is most significant."""
    states = list(states)
    if not states:
        raise ValueError("tensor_product needs at least one state")
    v = states[0].amplitudes
    for s in states[1:]:
        v = np.kron(v, s.amplitudes)
    return PureState(v, sum(s.width for s in states))


@dataclass(frozen=True, eq=False)
class StateEnsemble:
    """An ordered collection of n >= 2 equal-width states, labeled 1..n.

    ``amplitudes`` is a read-only (n, 2**width) complex128 matrix whose row
    i-1 is state i. Construction copies it and is the one place an ensemble
    is checked: two dimensions, at least two rows of a power-of-two length
    >= 2, finite values, and every row of unit norm to ``NORM_ATOL``.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _as_amplitudes(np.array(self.amplitudes, dtype=np.complex128), ndim=2)
        if len(a) < 2:
            raise ValueError("ensemble needs at least 2 states")
        norms = np.linalg.norm(a, axis=1)
        off = np.flatnonzero(np.abs(norms - 1.0) > NORM_ATOL)
        if off.size:
            raise ValueError(f"state {off[0] + 1} is not normalized (norm {norms[off[0]]!r})")
        a.flags.writeable = False
        object.__setattr__(self, "amplitudes", a)

    @property
    def n(self) -> int:
        return len(self.amplitudes)

    @property
    def width(self) -> int:
        return self.amplitudes.shape[1].bit_length() - 1

    def state(self, label: int) -> PureState:
        """State by 1-based label, a ``PureState`` viewing its row."""
        if not 1 <= label <= self.n:
            raise ValueError(f"label {label} out of range 1..{self.n}")
        return PureState(self.amplitudes[label - 1], self.width)

    @cached_property
    def overlaps(self) -> np.ndarray:
        """Read-only (n, n) matrix of |<phi_i|phi_j>|**2, row and column
        i-1 for label i: the Gram matrix of the amplitude rows, squared in
        modulus. Computed once per ensemble.

        The real and imaginary parts are four real products rather than one
        complex one: that rounds closest to ``exact_overlap`` (measured: one
        bit differs in about 1 of 100 entries at widths 1 and 2, against 1
        in 3 for the complex product)."""
        re, im = self.amplitudes.real, self.amplitudes.imag
        gram = np.hypot(re @ re.T + im @ im.T, re @ im.T - im @ re.T) ** 2
        gram.flags.writeable = False
        return gram
