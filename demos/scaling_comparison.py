"""Resource and precision scaling of the two schemes.

The recursive scheme spends (k-1)*2^(k-1) controlled swaps and 2(k-1)
ancillas to test n/2 pairs per shot; the baseline spends 3(2^(k-1)-1) swaps
and 3(k-1) ancillas but verifies only one pair per shot. Equal shot budgets
therefore give the recursive scheme n/2 times the per-pair samples.

Circulated general-term formulas (n*k and 3(n-1) for the swap counts)
disagree with the built circuits on every row; the report keeps both and
flags the conflict instead of silently choosing.
"""

from multiswap.analytics import precision, resource_report
from multiswap.estimation import decide, estimate_all_overlaps
from multiswap.fixtures import load_ensemble

print("n     new cswap (alt)   new anc   base cswap (alt)   base anc   conflict")
for row in resource_report(6):
    assert row["new_cswap_measured"] == row["new_cswap"]
    assert row["san_cswap_measured"] == row["san_cswap"]
    print(
        f"{row['n']:<5} {row['new_cswap']:>6}  ({row['new_cswap_alt']:>4})   "
        f"{row['new_ancilla']:>7}   {row['san_cswap']:>8}  ({row['san_cswap_alt']:>5})   "
        f"{row['san_ancilla']:>8}   {row['formula_conflict']}"
    )

print("\nper-pair sample model at N = 8192:")
print("n     baseline m   multiplexed m   ratio (= n/2)")
for n in (4, 8, 16, 32, 64):
    model = precision(n, 8192)
    print(
        f"{model.n:<5} {model.baseline_per_pair:>10.2f}   "
        f"{model.multiplexed_per_pair:>12.2f}   {model.ratio:>6.1f}"
    )

print("\nempirical check at n=8, N=20000 (same seed for both schemes):")
ensemble = load_ensemble(0)
new = estimate_all_overlaps(decide(ensemble, "new", shots=20000, seed=11))
base = estimate_all_overlaps(decide(ensemble, "san", shots=20000, seed=11))
avg_new = new.estimates.samples.mean()
avg_base = base.estimates.samples.mean()
print(f"  recursive scheme: {avg_new:.1f} samples/pair")
print(f"  baseline scheme:  {avg_base:.1f} samples/pair")
print(f"  ratio: {avg_new / avg_base:.2f} (model says {ensemble.n / 2:.1f})")
