"""Reproduce the bundled eight-state run end to end.

Builds the 16-qubit circuit (4 routing ancillas, 8 data qubits, 4 verdict
qubits), samples 8192 shots, decodes every ancilla outcome from the
circuit's wiring, and compares all 28 pairwise overlap estimates
with their exact values and with the bundled record of the same experiment.
"""

import numpy as np

from multiswap.analytics import scatter_data
from multiswap.builder import assemble
from multiswap.circuits import count_resources
from multiswap.estimation import decide, estimate_all_overlaps
from multiswap.fixtures import load_ensemble, reference_estimates

ensemble = load_ensemble(0)
run = decide(ensemble, shots=8192, seed=7)  # checked and planned; nothing drawn yet
plan = run.plan
circuit = assemble(plan)
profile = count_resources(circuit)
print(
    f"circuit: {circuit.qubit_count} qubits, {profile.cswap_count} CSWAPs "
    f"({profile.cswap_count - 4} routing + 4 final tests), "
    f"{plan.ancilla_count} routing ancillas"
)

result = estimate_all_overlaps(run)
est = result.estimates  # one column per field, one row per pair
published = reference_estimates()

print("\npair   exact    this run  published  samples")
rows = zip(est.pairs.tolist(), est.exact.tolist(), est.estimate.tolist(), est.samples.tolist())
for (i, j), exact, value, samples in rows:
    print(
        f"{(i, j)}  {exact:.4f}   {value:+.4f}   "
        f"{published[(i, j)]:+.4f}    {samples}"
    )

_, summary = scatter_data(est)
in_band = np.sum(np.abs(est.estimate - est.exact) <= 3 * est.stderr)
print(f"\nwithin 3/sqrt(m) of exact: {in_band}/28")
print(f"max |error| {summary.max_abs_error:.4f}, rmse {summary.rmse:.4f}")
print(f"mean per-pair samples: {est.samples.mean():.1f}"
      f" (expected N/(n-1) = {8192/7:.1f})")
