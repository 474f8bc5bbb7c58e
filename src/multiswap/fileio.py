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
from numpy.lib.stride_tricks import sliding_window_view

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
        with np.errstate(over="ignore"):  # a square past the float range is reported below
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


#: most digits of a count read in bulk; 18 digits never pass 2**63 - 1
_DIGITS = 18
#: the ASCII line breaks of ``str.splitlines``: \n \v \f \r and \x1c-\x1e
_BREAKS = np.zeros(32, dtype=bool)
_BREAKS[[10, 11, 12, 13, 28, 29, 30]] = True


def read_counts(path) -> CountsTable:
    """Parse a counts file; duplicate bitstring lines merge by summation.

    A canonical data line, one ``0``/``1`` byte per label, one space, 1 to
    18 ASCII digits and a line end, is read in bulk from the file's bytes.
    Every other line goes through ``_line_rules``: first those that can
    hold a header, which do not start with ``0`` or ``1`` or hold a
    non-ASCII byte (``str.splitlines`` also breaks at \\x85, \\u2028 and
    \\u2029), so the layout is known; then the data lines that are not
    canonical. The line number of a malformed line is looked up only to
    report it.
    """
    path = Path(path)
    raw = path.read_bytes()
    data = np.frombuffer(raw, dtype=np.uint8)
    ascii_only = not data.size or data.max() < 0x80
    if not ascii_only:
        try:
            raw.decode()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not readable as text ({exc})") from None
    starts, ends = _line_bounds(data)
    lead = data[starts]
    maybe_data = (lead == ord("0")) | (lead == ord("1"))
    if not ascii_only:
        high = np.flatnonzero(data >= 0x80)
        maybe_data[np.searchsorted(starts, high, side="right") - 1] = False
    labels: tuple[str, ...] | None = None
    scheme = ""
    fields: list[tuple[int, list[str]]] = []  # (line index, fields) of rule-read data

    def by_rules(which: np.ndarray) -> None:
        nonlocal labels, scheme
        for i, start, end in zip(which.tolist(), starts[which].tolist(), ends[which].tolist()):
            for line in raw[start:end].decode().splitlines():
                kind, value = _line_rules(line)
                if kind == "layout":
                    labels = value
                elif kind == "scheme":
                    scheme = value
                elif kind == "data":
                    fields.append((i, value))

    by_rules(np.flatnonzero(~maybe_data))
    lines = np.flatnonzero(maybe_data)
    bulk_bits, bulk_counts, canonical = _canonical_lines(
        data, starts[lines], ends[lines], len(labels or ())
    )
    by_rules(lines[~canonical])
    fields.sort(key=lambda item: item[0])  # stable: a line's own lines keep their order
    parts = [value for _, value in fields]
    shaped = not set(map(len, parts)) - {2}
    keys, values = zip(*parts) if parts and shaped else ((), ())
    text, digits = "".join(keys), "".join(values)
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    if not shaped or (codes > 1).any() or digits and not (digits.isascii() and digits.isdigit()):
        lineno, line = _first_malformed(raw.decode().splitlines())
        raise DataError(f"{path}:{lineno}: expected '<bitstring> <count>', got {line!r}")
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
    except (OverflowError, ValueError):  # ValueError: past Python's int-string limit
        raise DataError(f"{path}: a count exceeds the 64-bit range") from None
    if keys:
        bulk_bits = np.concatenate([bulk_bits, codes.reshape(len(keys), len(labels))])
        bulk_counts = np.concatenate([bulk_counts, counts])
    try:
        return CountsTable(labels, scheme, bulk_bits, bulk_counts)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _line_bounds(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the lines ``str.splitlines`` finds in the
    ASCII line breaks of ``data``, ``\\r\\n`` being one break; a line's
    end is the offset of its break, or of the end of the data."""
    low = np.flatnonzero(data < 0x20)
    breaks = low[_BREAKS[data[low]]]
    # the \n of a \r\n ends no line, and the next line starts past it
    crlf = np.flatnonzero(
        (np.diff(breaks) == 1) & (data[breaks[:-1]] == ord("\r")) & (data[breaks[1:]] == ord("\n"))
    )
    ends = np.delete(breaks, crlf + 1)
    starts = np.concatenate([[0], np.delete(breaks, crlf) + 1])
    if starts[-1] < len(data):  # a last line without a line end
        return starts, np.append(ends, len(data))
    return starts[:-1], ends


def _canonical_lines(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bits and counts of the canonical ones among the lines ``[starts,
    ends)`` of ``data``, with the mask of which lines those are.

    A line is canonical when it is ``width`` bytes of ``0``/``1``, one space
    and 1 to ``_DIGITS`` ASCII digits. Bitstrings are rows of a sliding
    window at the line starts; counts are the last bytes of each line,
    right-aligned in as many columns as the longest count has digits,
    zeroed ahead of the digits and weighted by place.
    """
    digits = ends - starts - width - 1
    canonical = np.zeros(len(starts), dtype=bool)
    sized = np.flatnonzero((digits >= 1) & (digits <= _DIGITS))
    if not width or not sized.size:
        return np.empty((0, width), dtype=np.uint8), np.empty(0, dtype=np.int64), canonical
    starts, ends, digits = starts[sized], ends[sized], digits[sized]
    bits = sliding_window_view(data, width)[starts]
    bits -= ord("0")
    column = np.arange(-int(digits.max()), 0)
    tail = data[np.maximum(ends[:, None] + column, 0)] - ord("0")
    tail *= column >= -digits[:, None]
    good = data[starts + width] == ord(" ")
    if bits.max() > 1:
        good[np.flatnonzero(bits.reshape(-1) > 1) // width] = False
    if tail.max() > 9:
        good[np.flatnonzero(tail.reshape(-1) > 9) // len(column)] = False
    canonical[sized[good]] = True
    if not good.all():
        bits, tail = bits[good], tail[good]
    return bits, tail.astype(np.int64) @ 10 ** (-1 - column), canonical


def _line_rules(line: str) -> tuple[str, object]:
    """What one line of text says: ``("blank", None)`` for a blank or
    comment line, else ``("layout", labels)``, ``("scheme", name)`` or
    ``("data", fields)``."""
    parts = line.split()
    if not parts or parts[0][0] == "#":
        return "blank", None
    if parts[0].startswith("layout:"):
        return "layout", tuple(line.strip()[len("layout:") :].split())
    if parts[0].startswith("scheme:"):
        return "scheme", line.strip()[len("scheme:") :].strip()
    return "data", parts


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
