"""File formats: state JSON, counts text, table JSON, and CSV reports.

Counts files are plain text: ``#`` comment lines, a ``layout:`` header with
the ordered bit labels, a ``scheme:`` header, then ``<bitstring> <count>``
lines. Duplicate bitstrings merge by summation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .builder import LayoutPlan
from .estimation import SCHEMES, CountsTable
from .states import INPUT_NORM_TOL, PureState, StateEnsemble, normalize


class DataError(ValueError):
    """Malformed input file contents."""


def _parse_amplitude(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry, 0.0)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        re, im = entry
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            return complex(re, im)
    raise DataError(f"{where}: amplitude must be a real number or an [re, im] pair")


def parse_states(doc: dict, *, renormalize: bool = False) -> StateEnsemble:
    """Build an ensemble from a decoded state document."""
    if not isinstance(doc, dict) or "width" not in doc or "states" not in doc:
        raise DataError("state file needs 'width' and 'states' fields")
    width = doc["width"]
    if not isinstance(width, int) or width < 1:
        raise DataError(f"width must be a positive integer, got {width!r}")
    raw = doc["states"]
    if not isinstance(raw, list) or len(raw) < 2:
        raise DataError("'states' must list at least two states")
    states = []
    for idx, vec in enumerate(raw, start=1):
        if not isinstance(vec, list) or len(vec) != 2**width:
            raise DataError(f"state {idx}: expected {2**width} amplitudes")
        amps = [_parse_amplitude(a, f"state {idx}") for a in vec]
        try:
            if renormalize:
                states.append(normalize(amps))
            else:
                states.append(PureState.from_amplitudes(amps, tol=INPUT_NORM_TOL))
        except ValueError as exc:
            raise DataError(f"state {idx}: {exc}") from exc
    return StateEnsemble(tuple(states))


def load_states(path, *, renormalize: bool = False) -> StateEnsemble:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    return parse_states(doc, renormalize=renormalize)


def save_states(path, ensemble: StateEnsemble, **extra) -> None:
    doc = dict(extra)
    doc["width"] = ensemble.width
    doc["states"] = [
        [[float(a.real), float(a.imag)] for a in s.amplitudes] for s in ensemble.states
    ]
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_counts(path) -> CountsTable:
    """Parse a counts file; duplicate bitstring lines merge by summation."""
    path = Path(path)
    labels: tuple[str, ...] | None = None
    scheme = ""
    keys: list[str] = []
    values: list[int] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("layout:"):
            labels = tuple(line[len("layout:") :].split())
            continue
        if line.startswith("scheme:"):
            scheme = line[len("scheme:") :].strip()
            continue
        parts = line.split()
        if len(parts) != 2 or set(parts[0]) - {"0", "1"} or not parts[1].isdigit():
            raise DataError(f"{path}:{lineno}: expected '<bitstring> <count>', got {raw!r}")
        keys.append(parts[0])
        values.append(int(parts[1]))
    if not labels:
        raise DataError(f"{path}: missing or empty 'layout:' header")
    if scheme and scheme not in SCHEMES:
        raise DataError(f"{path}: unknown scheme {scheme!r}; expected one of {SCHEMES}")
    bad = [key for key in keys if len(key) != len(labels)]
    if bad:
        raise DataError(
            f"{path}: bitstring length {len(bad[0])} does not match the "
            f"{len(labels)}-bit layout ({' '.join(labels)})"
        )
    if any(v >= 1 << 63 for v in values):
        raise DataError(f"{path}: a count exceeds the 64-bit range")
    text = np.frombuffer("".join(keys).encode("ascii"), dtype=np.uint8)
    bits = text.reshape(len(keys), len(labels)) - ord("0")
    return CountsTable(labels, scheme, bits, np.array(values, dtype=np.int64))


def write_counts(path, counts: CountsTable, *, comments: tuple[str, ...] = ()) -> None:
    """Write counts as ``<bitstring> <count>`` lines in the table's row order."""
    lines = [f"# {c}" for c in comments]
    lines.append("layout: " + " ".join(counts.labels))
    lines.append(f"scheme: {counts.scheme}")
    width = len(counts.labels)
    text = (counts.bits + ord("0")).tobytes().decode("ascii")
    for row, count in enumerate(counts.counts.tolist()):
        lines.append(f"{text[row * width : (row + 1) * width]} {count}")
    Path(path).write_text("\n".join(lines) + "\n")


def table_to_dict(
    plan: LayoutPlan,
    labels,
    *,
    reference_rows: dict[str, tuple[int, ...]] | None = None,
) -> dict:
    """JSON-ready audit view of a decoder table, keyed by outcome bitstring.

    ``labels`` is ``builder.decode_all(plan)``: column r is the permutation
    of outcome r. When ``reference_rows`` is given, outcomes whose derived
    permutation differs are listed under ``reference_mismatches`` (the
    derived rows stay authoritative).
    """
    d = plan.ancilla_count
    rows = {format(r, f"0{d}b"): column for r, column in enumerate(labels.T.tolist())}
    doc = {
        "scheme": plan.scheme,
        "n": plan.n,
        "ancilla_count": d,
        "slots": [list(s) for s in plan.slots],
        "rows": {
            outcome: {
                "permutation": row,
                "slot_pairs": [[row[a - 1], row[b - 1]] for a, b in plan.slots],
            }
            for outcome, row in rows.items()
        },
    }
    if reference_rows is not None:
        doc["reference_mismatches"] = [
            {"outcome": outcome, "derived": row, "reference": list(reference_rows[outcome])}
            for outcome, row in rows.items()
            if outcome in reference_rows and list(reference_rows[outcome]) != row
        ]
    return doc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _cells(values) -> list[str]:
    """One column's CSV text: ints with ``str``, floats with ``.10g`` and NaN
    as an empty cell, anything else (None, bools, strings) by ``_fmt``."""
    column = np.asarray(values)
    if column.dtype.kind in "iu":
        return list(map(str, column.tolist()))
    if column.dtype.kind == "f":
        text = np.array(list(map("{:.10g}".format, column.tolist())), dtype=object)
        text[np.isnan(column)] = ""
        return text.tolist()
    return list(map(_fmt, column.tolist()))


def write_csv(path, columns: dict) -> None:
    """Write named, equal-length columns as CSV: a header row of the names,
    then one row per index."""
    cells = [_cells(values) for values in columns.values()]
    if len({len(column) for column in cells}) > 1:
        raise ValueError("CSV columns differ in length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def read_reference_estimates(path) -> dict[tuple[int, int], float]:
    """Reference values keyed by pair from a CSV with pair_i,pair_j columns.

    Uses the ``estimate`` column if present, else ``value``; a value that
    is not a finite number is a data error.
    """
    out: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                pair = (int(row["pair_i"]), int(row["pair_j"]))
                out[pair] = float(row.get("estimate") or row["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad reference row {row!r}") from exc
            if not math.isfinite(out[pair]):
                raise DataError(f"{path}: non-finite reference value in row {row!r}")
    return out
