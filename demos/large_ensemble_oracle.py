"""Estimating all 2016 pairwise overlaps of 64 states without a statevector.

A 64-input circuit needs 64 + 10 + 32 = 106 qubits, far past any dense
simulation. The permutation-oracle engine uses the network's exact structure
instead: ancilla outcomes are uniform, and conditioned on an outcome every
slot is an independent two-state swap test with a known success probability.
The resulting counts follow the same distribution as the full circuit.
"""

import time

import numpy as np

from multiswap.estimation import decide, estimate_all_overlaps
from multiswap.states import StateEnsemble

rng = np.random.default_rng(2024)
rows = []
for _ in range(64):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rows.append(v / np.linalg.norm(v))
ensemble = StateEnsemble(np.array(rows))  # one unit-norm state per row

start = time.perf_counter()
result = estimate_all_overlaps(decide(ensemble, shots=1_000_000, seed=8, engine="oracle"))
elapsed = time.perf_counter() - start

est = result.estimates
errors = est.estimate - est.exact
samples = est.samples
print(f"engine: {result.run.engine}, shots: 1e6, elapsed {elapsed:.1f}s")
print(f"pairs estimated: {len(est)}")
print(f"mean samples per pair: {samples.mean():.0f} (model N/(n-1) = {1e6 / 63:.0f})")
print(f"rmse: {np.sqrt((errors**2).mean()):.5f}")
print(f"max |error|: {np.abs(errors).max():.5f}")
in_band = np.mean(np.abs(errors) <= 3 * est.stderr)
print(f"within 3/sqrt(m): {in_band:.1%}")
