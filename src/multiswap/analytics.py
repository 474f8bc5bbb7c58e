"""Closed-form precision and resource models plus plot-ready comparisons.

Rendering is out of scope: everything here emits plain rows suitable for
CSV export, matching the axes of the scatter and scaling figures.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .builder import assemble, layout_plan, padded_size
from .circuits import count_resources
from .estimation import PairEstimates


@dataclass(frozen=True)
class PrecisionModel:
    """Expected per-pair sample counts after N runs on n inputs.

    ``baseline_per_pair`` assumes one verdict per run (single measured slot);
    ``multiplexed_per_pair`` assumes n/2 verdicts per run. Their ratio is
    exactly n/2.
    """

    n: int
    shots: int
    baseline_per_pair: float
    multiplexed_per_pair: float
    ratio: float


def precision(n: int, shots: int) -> PrecisionModel:
    """Evaluate the per-pair sample model at the padded circuit size,
    ``builder.padded_size(n)``: 2 or 3 states run on 4 registers."""
    if n < 2:
        raise ValueError("need at least two states")
    if not 1 <= shots <= sys.float_info.max / 2:  # 2.0 * shots stays a finite float
        raise ValueError(f"shots must be in 1..{sys.float_info.max / 2:.6g}")
    size = padded_size(n)
    baseline = 2.0 * shots / (size * (size - 1))
    multiplexed = shots / (size - 1)
    return PrecisionModel(size, shots, baseline, multiplexed, size / 2.0)


# closed forms, with the conflicting general-term variants also reported
def network_cswaps(k: int) -> int:
    return (k - 1) * 2 ** (k - 1)


def network_ancillas(k: int) -> int:
    return 2 * (k - 1)


def network_cswaps_alt(k: int) -> int:
    """The circulated n*k simplification; disagrees with the built circuits."""
    return 2**k * k


def baseline_cswaps(k: int) -> int:
    return 3 * (2 ** (k - 1) - 1)


def baseline_ancillas(k: int) -> int:
    return 3 * (k - 1)


def baseline_cswaps_alt(k: int) -> int:
    """The circulated 3(n-1) simplification; disagrees with the built circuits."""
    return 3 * (2**k - 1)


#: columns of a resource comparison row, in emission order
RESOURCE_COLUMNS = (
    "n",
    "k",
    "new_cswap",
    "new_cswap_alt",
    "new_cswap_measured",
    "new_ancilla",
    "new_ancilla_measured",
    "san_cswap",
    "san_cswap_alt",
    "san_cswap_measured",
    "san_ancilla",
    "san_ancilla_measured",
    "precision_ratio",
    "formula_conflict",
)

# building circuit IRs is cheap; above this we report formulas only
_MEASURE_LIMIT = 1024


def resource_report(max_k: int) -> list[dict]:
    """Closed-form and measured resource counts for n = 4 .. 2**max_k.

    Measured columns come from count_resources on the built networks. Rows
    where the circulated general-term formulas disagree with the recursion-
    derived ones carry formula_conflict=True; both values are always shown.
    """
    if max_k < 2:
        raise ValueError("max_k must be >= 2")
    rows = []
    for k in range(2, max_k + 1):
        n = 2**k
        row: dict = {"n": n, "k": k}
        row["new_cswap"] = network_cswaps(k)
        row["new_cswap_alt"] = network_cswaps_alt(k)
        row["new_ancilla"] = network_ancillas(k)
        row["san_cswap"] = baseline_cswaps(k)
        row["san_cswap_alt"] = baseline_cswaps_alt(k)
        row["san_ancilla"] = baseline_ancillas(k)
        if n <= _MEASURE_LIMIT:
            new_prof = count_resources(assemble(layout_plan("new", n)))
            san_prof = count_resources(assemble(layout_plan("san", n)))
            row["new_cswap_measured"] = new_prof.cswap_count
            row["new_ancilla_measured"] = new_prof.ancilla_count
            row["san_cswap_measured"] = san_prof.cswap_count
            row["san_ancilla_measured"] = san_prof.ancilla_count
        else:
            for col in (
                "new_cswap_measured",
                "new_ancilla_measured",
                "san_cswap_measured",
                "san_ancilla_measured",
            ):
                row[col] = None
        row["precision_ratio"] = n / 2.0
        row["formula_conflict"] = (
            row["new_cswap"] != row["new_cswap_alt"]
            or row["san_cswap"] != row["san_cswap_alt"]
        )
        rows.append(row)
    return rows


@dataclass(frozen=True)
class ScatterSummary:
    rows: int
    max_abs_error: float
    rmse: float


def scatter_data(estimates: PairEstimates) -> tuple[dict[str, np.ndarray], ScatterSummary]:
    """Five of the ``estimates.csv`` columns (x = estimate, y = exact, then
    pair_i, pair_j and samples) over the rows with samples > 0, plus their
    error summary."""
    table, keep = estimates.columns(), estimates.samples > 0
    names = "estimate", "exact", "pair_i", "pair_j", "samples"  # scatter.csv's order
    columns = {name: table[name][keep] for name in names}
    err = columns["estimate"] - columns["exact"]
    if not len(err):
        return columns, ScatterSummary(0, 0.0, 0.0)
    summary = ScatterSummary(
        len(err), float(np.max(np.abs(err))), float(np.sqrt(np.mean(err**2)))
    )
    return columns, summary
