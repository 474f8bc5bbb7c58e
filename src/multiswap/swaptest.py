"""Two-state swap-test variants and the overlap estimation identity.

All four variants estimate |<a|b>|**2 through the same functional: the
success probability of a verdict bit is (1 + overlap) / 2. The ``standard``
and ``ccz`` variants read the verdict off a measured ancilla; ``deferred``
and ``destructive`` derive it classically from the measured data registers
as the parity of per-qubit-pair AND bits.
"""

from __future__ import annotations

import numpy as np

from .circuits import CircuitIR, Gate, index_bits
from .sim import measured_distribution
from .states import PureState, basis_state, tensor_product

VARIANTS = ("standard", "ccz", "deferred", "destructive")


def overlap_from_prob(p0: float) -> float:
    """Invert Prob(success) = (1 + overlap) / 2. Not clamped to [0, 1]."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must lie in [0, 1], got {p0}")
    return 2.0 * p0 - 1.0


def destructive_decode(bits, width: int) -> np.ndarray:
    """Verdicts of an (R, 2*width) 0/1 array, one per row; a row holds the
    measured bits of register A, then those of register B.

    A verdict is 1 ("fail") iff the parity of per-pair AND bits is odd,
    which is calibrated so that P(verdict=0) = (1 + overlap) / 2.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != 2 * width:
        raise ValueError(f"expected {2 * width} bits per row, got shape {bits.shape}")
    return np.bitwise_xor.reduce(bits[:, :width] & bits[:, width:], axis=1)


def build_swap_test(variant: str, width: int) -> CircuitIR:
    """Circuit fragment testing two width-qubit registers.

    Qubit layout: ancilla variants put the verdict qubit first, then register
    A, then register B; the destructive variant is just A then B. Measured
    labels are "anc" for ancilla verdicts and "a0..", "b0.." for data bits.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if width < 1:
        raise ValueError("width must be >= 1")
    w = width
    if variant == "destructive":
        a = list(range(w))
        b = list(range(w, 2 * w))
        gates = []
        for k in range(w):
            gates.append(Gate("CNOT", (a[k], b[k])))
            gates.append(Gate("H", (a[k],)))
        measured = [(a[k], f"a{k}") for k in range(w)] + [(b[k], f"b{k}") for k in range(w)]
        return CircuitIR(2 * w, ("data",) * (2 * w), tuple(gates), tuple(measured))

    anc = 0
    a = list(range(1, 1 + w))
    b = list(range(1 + w, 1 + 2 * w))
    roles = ("result",) + ("data",) * (2 * w)
    gates = [Gate("H", (anc,))]
    if variant == "standard":
        for k in range(w):
            gates.append(Gate("CSWAP", (anc, a[k], b[k])))
        gates.append(Gate("H", (anc,)))
        measured = [(anc, "anc")]
    else:
        # basis change per pair, then the controlled phases; the undo gates
        # are dropped because they never touch the measured bits
        for k in range(w):
            gates.append(Gate("CNOT", (b[k], a[k])))
            gates.append(Gate("H", (b[k],)))
        for k in range(w):
            gates.append(Gate("CCZ", (anc, a[k], b[k])))
        if variant == "ccz":
            gates.append(Gate("H", (anc,)))
            measured = [(anc, "anc")]
        else:  # deferred: data bits measured, ancilla outcome predicted classically
            measured = [(a[k], f"a{k}") for k in range(w)] + [
                (b[k], f"b{k}") for k in range(w)
            ]
    return CircuitIR(1 + 2 * w, roles, tuple(gates), tuple(measured))


def pair_input(variant: str, a: PureState, b: PureState) -> PureState:
    """Full input state for a build_swap_test fragment."""
    if a.width != b.width:
        raise ValueError("tested states must have equal widths")
    if variant == "destructive":
        return tensor_product([a, b])
    return tensor_product([basis_state(1), a, b])


def verdict_probability(variant: str, a: PureState, b: PureState) -> float:
    """Exact P(verdict = 0) for the given variant and state pair."""
    circuit = build_swap_test(variant, a.width)
    _, probs = measured_distribution(circuit, pair_input(variant, a, b))
    if variant in ("standard", "ccz"):
        return float(probs[0])
    verdicts = destructive_decode(index_bits(np.arange(len(probs)), 2 * a.width), a.width)
    return float(probs[verdicts == 0].sum())

