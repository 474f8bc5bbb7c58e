"""Output checker for benchmark invocations, and its self-test.

The checker reads only the files an invocation wrote (plus the generated
inputs) and recomputes exact overlaps from the input states itself, so it
does not trust any program code. ``self_test`` feeds it corrupted copies of
a clean output and reports every corruption it failed to reject.

Run ``python3 benchmarks/check.py`` to self-test the checker on a small
synthetic output without running the program.
"""

from __future__ import annotations

import csv
import math
from itertools import combinations
from pathlib import Path

import numpy as np

from inputs import Inputs, Workload

#: |estimate - exact| may not exceed this many 1/sqrt(samples)
BAND = 5.0
#: the CSV writes floats with 10 significant digits
EXACT_TOL = 1e-8


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def counts_total(path: Path) -> int:
    """Sum of the counts of a counts file's ``<bitstring> <count>`` lines."""
    total = 0
    for line in path.read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith(("#", "layout:", "scheme:")):
            total += int(parts[1])
    return total


def exact_overlaps(states: np.ndarray) -> np.ndarray:
    """|<i|j>|**2 for every pair of rows, 0-based."""
    return np.abs(states.conj() @ states.T) ** 2


def check_rows(
    rows: list[dict[str, str]], w: Workload, exact: np.ndarray, shots_in_file: int
) -> list[str]:
    """Every reason the per-pair rows of one invocation are wrong."""
    m = w.states
    problems: dict[str, list[str]] = {}

    def bad(check: str, detail: str) -> None:
        problems.setdefault(check, []).append(detail)

    try:
        pairs = [(int(r["pair_i"]), int(r["pair_j"])) for r in rows]
        samples = [int(r["samples"]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed rows: {exc}"]
    expected_pairs = list(combinations(range(1, m + 1), 2))
    if sorted(pairs) != expected_pairs:
        bad("one row per pair", f"{len(pairs)} rows, expected C({m},2) = {len(expected_pairs)}")
    expected_samples = w.shots * w.slots  # m is a power of two: every slot is real
    if sum(samples) != expected_samples:
        bad("sample total", f"{sum(samples)} != shots x real slots = {expected_samples}")
    if shots_in_file != w.shots:
        bad("counts-file total", f"{shots_in_file} != shots = {w.shots}")
    for row, (i, j), n in zip(rows, pairs, samples):
        where = f"pair ({i},{j})"
        if n == 0 or not row.get("estimate"):
            bad("every pair sampled", where)
            continue
        if not (1 <= i < j <= m):
            bad("pair labels in range", where)
            continue
        try:
            est, ex = float(row["estimate"]), float(row["exact"])
        except (KeyError, ValueError):
            bad("numeric estimate and exact", where)
            continue
        truth = exact[i - 1, j - 1]
        if not -1.0 <= est <= 1.0:
            bad("estimate in [-1, 1]", f"{where}: {est}")
        if abs(ex - truth) > EXACT_TOL:
            bad("exact column", f"{where}: {ex} vs recomputed {truth:.10g}")
        if abs(est - truth) > BAND / math.sqrt(n):
            bad("estimate within 5/sqrt(m)", f"{where}: {est} vs {truth:.6f}, m={n}")
        if w.command == "replay":
            if est != 1.0:
                bad("replay estimate == 1.0", f"{where}: {est}")
            if row.get("flag") != "ok":
                bad("replay flag ok", f"{where}: {row.get('flag')}")
    return [
        f"{check}: {len(details)} violation(s), first {details[0]}"
        for check, details in problems.items()
    ]


def output_rows(inp: Inputs, out_dir: Path) -> tuple[list[dict[str, str]], int]:
    """The per-pair rows an invocation wrote, and the shots its counts file holds."""
    if inp.workload.command == "replay":
        return read_rows(out_dir / "replay.csv"), counts_total(inp.counts_path)
    return read_rows(out_dir / "estimates.csv"), counts_total(out_dir / "counts.txt")


def check_invocation(inp: Inputs, out_dir: Path, returncode: int) -> list[str]:
    """Every reason one finished invocation failed; empty means it passed."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        rows, shots_in_file = output_rows(inp, out_dir)
        problems = check_rows(rows, inp.workload, exact_overlaps(inp.states), shots_in_file)
        if inp.workload.command == "estimate":
            sampled = sum(1 for r in rows if r.get("estimate"))
            scatter = read_rows(out_dir / "scatter.csv")
            if len(scatter) != sampled:
                problems.append(f"scatter.csv: {len(scatter)} rows, expected {sampled}")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    return problems


def _edit(rows, index: int, **fields) -> list[dict[str, str]]:
    out = [dict(r) for r in rows]
    out[index].update(fields)
    return out


def self_test(rows, w: Workload, exact: np.ndarray, shots_in_file: int) -> list[str]:
    """Names of the corruptions of a clean output that the checker accepted."""
    if check_rows(rows, w, exact, shots_in_file):
        return ["self-test input is not a clean output"]
    first = rows[0]
    n = int(first["samples"])
    truth = exact[int(first["pair_i"]) - 1, int(first["pair_j"]) - 1]
    shift = 1.1 * BAND / math.sqrt(n)
    off_band = truth - shift if truth - shift >= -1.0 else truth + shift
    cases = {
        "dropped pair": (rows[1:], shots_in_file),
        "sample total off by one": (
            _edit(rows, 0, samples=str(n + 1)), shots_in_file),
        "out-of-band estimate": (
            _edit(rows, 0, estimate=f"{off_band:.10g}"), shots_in_file),
        "estimate outside [-1, 1]": (_edit(rows, 0, estimate="1.5"), shots_in_file),
        "unsampled pair": (_edit(rows, 0, samples="0", estimate=""), shots_in_file),
        "counts-file total off by one": (rows, shots_in_file + 1),
    }
    if w.command == "replay":
        cases["replay estimate below 1"] = (_edit(rows, 0, estimate="0.9999"), shots_in_file)
        cases["replay pair flagged"] = (_edit(rows, 0, flag="deviates"), shots_in_file)
    return [
        name for name, (bad_rows, total) in cases.items()
        if not check_rows(bad_rows, w, exact, total)
    ]


def _synthetic(w: Workload, seed: int = 0):
    """A clean output of workload shape ``w`` drawn without the program."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(w.states, 2)) + 1j * rng.normal(size=(w.states, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    exact = exact_overlaps(v)
    pairs = list(combinations(range(1, w.states + 1), 2))
    per_pair = np.full(len(pairs), w.shots * w.slots // len(pairs))
    per_pair[: w.shots * w.slots - per_pair.sum()] += 1
    rows = []
    for (i, j), n in zip(pairs, per_pair):
        t0 = rng.binomial(n, (1 + exact[i - 1, j - 1]) / 2)
        rows.append({
            "pair_i": str(i), "pair_j": str(j), "samples": str(n),
            "exact": f"{exact[i - 1, j - 1]:.10g}", "estimate": f"{2 * t0 / n - 1:.10g}",
        })
    return rows, exact


if __name__ == "__main__":
    w = Workload("synthetic_n16", "estimate", 16, 1, 4000)
    rows, exact = _synthetic(w)
    missed = self_test(rows, w, exact, w.shots)
    print("checker self-test:", "PASS" if not missed else f"FAIL, accepted {missed}")
    raise SystemExit(1 if missed else 0)
