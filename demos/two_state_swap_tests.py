"""Four ways to run a swap test on one pair of states.

All four circuit variants expose the same quantity: the probability of the
success verdict is (1 + |<a|b>|^2) / 2, so the overlap is 2*P(success) - 1.
The ancilla-based variants read the verdict off a measured ancilla; the
destructive variant measures both registers and decodes the verdict as the
parity of per-qubit-pair AND bits.
"""

import numpy as np

from multiswap.circuits import index_bits
from multiswap.sim import measured_distribution, sample_from_distribution
from multiswap.states import exact_overlap, normalize
from multiswap.swaptest import (
    VARIANTS,
    build_swap_test,
    destructive_decode,
    overlap_from_prob,
    pair_input,
    verdict_probability,
)

a = normalize([0.4164, 0.9091])
b = normalize([0.9981, 0.0609])
target = exact_overlap(a, b)
print(f"exact overlap |<a|b>|^2 = {target:.4f}\n")

print("variant       P(success)   implied overlap")
for variant in VARIANTS:
    p0 = verdict_probability(variant, a, b)
    print(f"{variant:<12}  {p0:.6f}     {overlap_from_prob(p0):+.6f}")

print("\nSampling the standard and destructive variants at 8192 shots:")
for variant in ("standard", "destructive"):
    circuit = build_swap_test(variant, a.width)
    labels, probs = measured_distribution(circuit, pair_input(variant, a, b))
    bits = index_bits(sample_from_distribution(probs, 8192, seed=42), len(labels))
    verdicts = bits[:, 0] if variant == "standard" else destructive_decode(bits, 1)
    t0 = int((verdicts == 0).sum())
    m = len(bits)
    estimate = 2 * t0 / m - 1
    print(
        f"  {variant:<12} t0={t0:<5} m={m}  estimate {estimate:+.4f} "
        f"(error {abs(estimate - target):.4f}, bound 1/sqrt(m) = {1/np.sqrt(m):.4f})"
    )
