"""Replay the bundled measurement record and audit its published numbers.

The package ships the raw counts of an 8192-shot cloud run of the 8-state
circuit. Replaying them through the derived decoder reproduces the worked
tally for pair (6,7): ancilla prefixes 0010 and 0011 route that pair to the
last slot, their verdict bits split t0=601 / t1=403, and the estimate is
2*601/1004 - 1 = 0.1972. The record's narrative quotes 0.4441 for this pair,
which its own counts contradict.

Three published per-pair estimates cannot be reproduced from the published
counts at all; the replay flags them rather than glossing over the gap.
"""

from multiswap.estimation import layout_for, replay
from multiswap.fixtures import load_ensemble, reference_counts, reference_estimates

ensemble = load_ensemble(0)
counts = reference_counts()  # one row of bits per distinct outcome, with its count
duplicated = (counts.bits == [1, 1, 1, 1, 1, 0, 1, 0]).all(axis=1)
print(f"recorded shots: {counts.total_shots}")
print(f"distinct outcomes: {len(counts.counts)} "
      f"(duplicate |11111010> rows merged to {counts.counts[duplicated].sum()})")

_, _, plan = layout_for(ensemble, "new", "standard")

# ancilla prefixes 0010 and 0011 share s1 s2 s3 = 001; r4 is column 7
routed = (counts.bits[:, :3] == [0, 0, 1]).all(axis=1)
t0 = counts.counts[routed & (counts.bits[:, 7] == 0)].sum()
t1 = counts.counts[routed & (counts.bits[:, 7] == 1)].sum()
print(f"\nworked example, pair (6,7): t0={t0}, t1={t1}, "
      f"estimate {2 * t0 / (t0 + t1) - 1:.4f}")

report = replay(counts, plan, ensemble, reference=reference_estimates(), tolerance=1e-3)
est = report.estimates  # reference and flags are aligned with est.pairs
print(f"\nreplayed {len(est)} pairs against the published estimates "
      f"(tolerance {report.tolerance}):")
rows = zip(est.pairs.tolist(), est.estimate.tolist(), report.reference.tolist(),
           est.samples.tolist(), report.flags.tolist())
for (i, j), value, ref, samples, flag in rows:
    marker = "   <-- " + flag if flag != "ok" else ""
    print(f"  {(i, j)}: replayed {value:+.4f}  published {ref:+.4f}"
          f"  m={samples}{marker}")

deviating = [(i, j) for i, j in est.pairs[report.flags != "ok"].tolist()]
print(f"\npublished values not derivable from the published counts: {deviating}")
