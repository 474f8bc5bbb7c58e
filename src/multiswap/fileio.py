"""File formats: state JSON, counts text, table JSON, and CSV reports.

Counts files are plain text: ``#`` comment lines, a ``layout:`` header with
the ordered bit labels, a ``scheme:`` header, then ``<bitstring> <count>``
lines. Duplicate bitstrings merge by summation.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .builder import SCHEMES, LayoutPlan
from .estimation import CountsTable, DataError
from .states import StateEnsemble

# External inputs rounded to a few decimals are admitted (and renormalized)
# if their norm deviates by no more than this; anything worse is rejected
# unless the caller explicitly asks for normalization.
INPUT_NORM_TOL = 1e-4


def _read_text(path, newline=None) -> str:
    """The file's text; bytes that do not decode are a data error."""
    try:
        with open(path, newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not readable as text ({exc})") from None


def _parse_amplitude(entry, where: str) -> complex:
    """A real number or an [re, im] pair as a complex; a bool is no number."""
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0.0]
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts):
        raise DataError(f"{where}: amplitude must be a real number or an [re, im] pair")
    try:
        return complex(*parts)
    except OverflowError:
        raise DataError(f"{where}: amplitude {entry!r:.40} is beyond the float range") from None


def parse_states(doc: dict, *, renormalize: bool = False) -> StateEnsemble:
    """Build an ensemble from a decoded state document, one matrix row per
    state, each divided by its norm. A norm off by more than ``INPUT_NORM_TOL``
    is a data error unless ``renormalize`` is set, which rejects only zero."""
    if not isinstance(doc, dict) or "width" not in doc or "states" not in doc:
        raise DataError("state file needs 'width' and 'states' fields")
    width = doc["width"]
    if isinstance(width, bool) or not isinstance(width, int) or width < 1:
        raise DataError(f"width must be a positive integer, got {width!r:.40}")
    raw = doc["states"]
    if not isinstance(raw, list) or len(raw) < 2:
        raise DataError("'states' must list at least two states")
    rows = []
    for idx, vec in enumerate(raw, start=1):
        # 2**width entries, checked without computing 2**width for a huge width
        size = len(vec) if isinstance(vec, list) else 0
        if size.bit_length() != width + 1 or size & (size - 1):
            raise DataError(f"state {idx}: expected 2**{width} amplitudes")
        rows.append([_parse_amplitude(a, f"state {idx}") for a in vec])
    amplitudes = np.array(rows, dtype=np.complex128)
    for idx, row in enumerate(amplitudes, start=1):
        norm = np.linalg.norm(row)
        if not np.isfinite(norm):
            raise DataError(f"state {idx}: amplitudes and their norm must be finite")
        if renormalize and norm < 1e-12:
            raise DataError(f"state {idx}: unnormalizable: zero vector")
        if not renormalize and abs(norm - 1.0) > INPUT_NORM_TOL:
            raise DataError(
                f"state {idx}: input norm {norm:.6f} deviates from 1 by more than "
                f"{INPUT_NORM_TOL}; pass normalized amplitudes or renormalize (--normalize)"
            )
        row /= norm
    return StateEnsemble(amplitudes)


def load_states(path, *, renormalize: bool = False) -> StateEnsemble:
    path = Path(path)
    text = _read_text(path)
    try:
        doc = json.loads(text)
    # an int past Python's digit limit is a ValueError, deep nesting a RecursionError
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    return parse_states(doc, renormalize=renormalize)


def save_states(path, ensemble: StateEnsemble, **extra) -> None:
    doc = dict(extra)
    doc["width"] = ensemble.width
    doc["states"] = np.stack([ensemble.amplitudes.real, ensemble.amplitudes.imag], -1).tolist()
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_counts(path) -> CountsTable:
    """Parse a counts file; duplicate bitstring lines merge by summation.

    Data lines are gathered in one pass and checked in bulk: a bitstring
    holds only 0s and 1s and a count only ASCII digits. The line number of
    a malformed line is looked up only to report it.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    labels: tuple[str, ...] | None = None
    scheme = ""
    fields: list[list[str]] = []
    for raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0].startswith("layout:"):
            labels = tuple(raw.strip()[len("layout:") :].split())
        elif parts[0].startswith("scheme:"):
            scheme = raw.strip()[len("scheme:") :].strip()
        else:
            fields.append(parts)
    shaped = not set(map(len, fields)) - {2}
    keys, values = zip(*fields) if fields and shaped else ((), ())
    text, digits = "".join(keys), "".join(values)
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if not shaped or (codes > 1).any() or digits and not (digits.isascii() and digits.isdigit()):
        lineno, raw = _first_malformed(lines)
        raise DataError(f"{path}:{lineno}: expected '<bitstring> <count>', got {raw!r}")
    if not labels:
        raise DataError(f"{path}: missing or empty 'layout:' header")
    if scheme and scheme not in SCHEMES:
        raise DataError(f"{path}: unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if set(map(len, keys)) - {len(labels)}:
        length = next(len(key) for key in keys if len(key) != len(labels))
        raise DataError(
            f"{path}: bitstring length {length} does not match the "
            f"{len(labels)}-bit layout ({' '.join(labels)})"
        )
    try:
        counts = np.array(values, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: a count exceeds the 64-bit range") from None
    return CountsTable(labels, scheme, codes.reshape(len(keys), len(labels)), counts)


def _first_malformed(lines: list[str]) -> tuple[int, str]:
    """1-based number and text of the first data line that is not one
    bitstring of 0s and 1s and one count of ASCII digits."""
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith(("#", "layout:", "scheme:")):
            continue
        if (
            len(parts) != 2 or parts[0].strip("01")
            or not (parts[1].isascii() and parts[1].isdigit())
        ):
            return lineno, raw
    raise ValueError("no malformed data line")


#: bytes of counts-file lines ``write_counts`` formats at once
_WRITE_BLOCK = 1 << 22


def write_counts(path, counts: CountsTable, *, comments: tuple[str, ...] = ()) -> None:
    """Write counts as ``<bitstring> <count>`` lines in the table's row order.

    Rows go out in blocks, each one byte matrix of bits, a space, the
    right-aligned count digits and a newline, from which the digits' leading
    padding is dropped; a block whose counts all have the same number of
    digits has none and is written as it stands.
    """
    header = [f"# {c}" for c in comments]
    header += ["layout: " + " ".join(counts.labels), f"scheme: {counts.scheme}"]
    width = len(counts.labels)
    # a line is at most the bits, a space, 19 digits and a newline
    rows = max(1, _WRITE_BLOCK // (width + 21))
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for start in range(0, len(counts.counts), rows):
            bits = counts.bits[start : start + rows]
            values = counts.counts[start : start + rows]
            places = len(str(values.max()))
            line = np.empty((len(values), width + places + 2), dtype=np.uint8)
            line[:, :width] = bits + ord("0")
            line[:, width] = ord(" ")
            rest = values.copy()
            for place in range(width + places, width, -1):
                line[:, place] = rest % 10 + ord("0")
                rest //= 10
            line[:, -1] = ord("\n")
            if values.min() >= 10 ** (places - 1):  # no count has a leading zero
                fh.write(line.tobytes())
                continue
            # keep a count's digits from its most significant one on
            keep = np.ones(line.shape, dtype=bool)
            powers = 10 ** np.arange(places - 1, 0, -1, dtype=np.int64)
            keep[:, width + 1 : width + places] = values[:, None] >= powers
            fh.write(line[keep].tobytes())


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


def _quote(text: str) -> str:
    """csv's QUOTE_MINIMAL rule: quote a cell holding a comma, a double
    quote or a line break, doubling its double quotes."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column: np.ndarray) -> list[str]:
    """One column's CSV text: ints with ``str``, floats with ``.10g`` and NaN
    as an empty cell, anything else (None, bools, strings) by ``_fmt`` and
    quoted. Each distinct value is formatted once, numbers in one ``%``
    call per column."""
    kind = column.dtype.kind
    if kind in "iu":
        distinct, where = np.unique(column, return_inverse=True)
        text = "%d\n" * len(distinct) % tuple(distinct.tolist())
    elif kind == "f":
        # distinct bit patterns keep 0.0 and -0.0 apart; only NaN gives "nan"
        bits = column.astype(np.float64, copy=False).view(np.uint64)
        distinct, where = np.unique(bits, return_inverse=True)
        values = tuple(distinct.view(np.float64).tolist())
        text = ("%.10g\n" * len(values) % values).replace("nan", "")
    else:
        if kind == "U":
            cells = column.tolist()
        elif kind == "b":
            cells = np.where(column, "true", "false").tolist()
        else:
            cells = list(map(_fmt, column.tolist()))
        quoted = {cell: _quote(cell) for cell in set(cells)}
        return list(map(quoted.__getitem__, cells))
    return np.array(text.split("\n")[:-1], dtype=object)[where].tolist()


def _csv_lines(cells: list[list[str]]) -> list[str]:
    """Rows of cell columns joined by commas; like csv, a record that is one
    empty field is written as ``""``."""
    lines = list(map(",".join, zip(*cells)))
    if len(cells) == 1:
        lines = [line or '""' for line in lines]
    return lines


#: rows ``write_csv`` formats at once
_CSV_BLOCK = 1 << 16


def write_csv(path, columns: dict) -> None:
    """Write named, equal-length columns as CSV: a header row of the names,
    then one row per index, each ended by CRLF as ``csv.writer`` does."""
    data = [np.asarray(values) for values in columns.values()]
    if len({len(column) for column in data}) > 1:
        raise ValueError("CSV columns differ in length")
    rows = len(data[0]) if data else 0
    with open(path, "w", newline="") as fh:
        header = _csv_lines([[_quote(str(name))] for name in columns]) or [""]
        fh.write(header[0] + "\r\n")
        for start in range(0, rows, _CSV_BLOCK):
            block = [_cells(column[start : start + _CSV_BLOCK]) for column in data]
            fh.write("\r\n".join(_csv_lines(block)) + "\r\n")


def read_reference_estimates(path) -> dict[tuple[int, int], float]:
    """Reference values keyed by pair from a CSV with pair_i,pair_j columns.

    Uses the ``estimate`` column if present, else ``value``. A row names an
    unordered pair, so ``2,1`` stands for (1, 2). A value that is not a
    finite number, a pair listed twice in either order, or text the csv
    module cannot parse is a data error.
    """
    out: dict[tuple[int, int], float] = {}
    seen: set[tuple[int, int]] = set()
    text = io.StringIO(_read_text(path, newline=""), newline="")
    try:
        for row in csv.DictReader(text):
            try:
                pair = (int(row["pair_i"]), int(row["pair_j"]))
                out[pair] = float(row.get("estimate") or row["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: bad reference row {row!r}") from exc
            if not math.isfinite(out[pair]):
                raise DataError(f"{path}: non-finite reference value in row {row!r}")
            unordered = (min(pair), max(pair))
            if unordered in seen:
                raise DataError(f"{path}: pair {unordered} listed twice, in row {row!r}")
            seen.add(unordered)
    except csv.Error as exc:  # such as a field over csv's size limit
        raise DataError(f"{path}: {exc}") from None
    return out
