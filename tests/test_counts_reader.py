"""``fileio.read_counts`` against the per-line reader it replaced.

``read_counts`` and ``_first_malformed`` below are the earlier reader, kept
verbatim as the reference: it splits and classifies every line in Python.
Its one addition names the file when ``CountsTable`` refuses the counts'
total, as the bulk reader does.
The bulk reader must return an equal table (labels, scheme, bits, counts)
for every file, or fail with the same exception and the same text.
"""

from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiswap import fileio
from multiswap.builder import SCHEMES
from multiswap.estimation import CountsTable, DataError
from multiswap.fileio import _read_text, write_counts


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
    try:
        return CountsTable(labels, scheme, codes.reshape(len(keys), len(labels)), counts)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


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


def _outcome(reader, path):
    """A reader's table as plain values, or its exception's type and text."""
    try:
        table = reader(path)
    except (DataError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return table.labels, table.scheme, table.bits.tolist(), table.counts.tolist()


def _assert_same(path):
    expected = _outcome(read_counts, path)
    assert _outcome(fileio.read_counts, path) == expected
    return expected


_LINE_ENDS = st.sampled_from(
    ["\n"] * 6 + ["\r\n"] * 3 + ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]
)
_COUNTS = st.one_of(
    st.integers(0, 10**18 - 1).map(str),
    st.tuples(st.integers(1, 20), st.integers(0, 999)).map(lambda z: "0" * z[0] + str(z[1])),
    st.integers(10**17, 10**20 - 1).map(str),
    st.sampled_from([str(2**63 - 1), str(2**63), "0" * 18, "0" * 19, "0" * 17 + "12"]),
)
_BAD_COUNTS = st.sampled_from(["٣", "1٣", "-1", "+1", "1.0", "x", "1 2", "12a"])
_SEPARATORS = st.sampled_from(["", " ", " ", "  ", "\t", " \t", "\x1f", "\xa0", "\u2003"])
_PADDING = st.sampled_from(["", "", " ", "\t", "  \t", "\xa0"])
_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_NOTES = st.text(st.characters(codec="utf-8", exclude_characters=_BREAKS), max_size=8)


@st.composite
def _bits(draw, width):
    if draw(st.integers(0, 19)) == 0:  # the wrong length or not binary
        size = max(1, width + draw(st.integers(-3, 3)))
        text = format(draw(st.integers(0, 2**size - 1)), f"0{size}b")
        if draw(st.integers(0, 2)) == 0:
            at = draw(st.integers(0, size - 1))
            text = text[:at] + draw(st.sampled_from("2a  ٣")) + text[at + 1 :]
        return text
    return format(draw(st.integers(0, 2**width - 1)), f"0{width}b")


@st.composite
def _data_line(draw, width):
    bits, count = draw(_bits(width)), draw(_COUNTS)
    if draw(st.integers(0, 3)):
        return f"{bits} {count}"
    count = draw(st.one_of(_COUNTS, _COUNTS, _COUNTS, _BAD_COUNTS))
    lead, sep, trail = draw(_PADDING), draw(_SEPARATORS), draw(_PADDING)
    return lead + bits + sep + count + trail


def _headers(width):
    labels = " ".join(f"b{i}" for i in range(width))
    return st.one_of(
        st.just(f"layout: {labels}"),
        st.integers(1, 6).map(lambda w: "layout: " + " ".join(f"c{i}" for i in range(w))),
        st.sampled_from(["layout:", f"  layout:{labels}  ", f"layout:\t{labels}"]),
        st.sampled_from(
            ["scheme: new", "scheme: san", "scheme:", "scheme: bogus", "  scheme:\tsan "]
        ),
    )


def _other_lines(width):
    notes = st.one_of(_NOTES.map(lambda note: "#" + note), _NOTES.map(lambda note: "  # " + note))
    return st.one_of(
        _headers(width),
        notes,
        st.sampled_from(["", " ", "\t", "\xa0", "\u3000"]),
        # a rarer line end, hiding a header or a comment behind a data
        # line's leading 0 or 1
        st.tuples(_data_line(width), st.sampled_from(_BREAKS[2:]), _headers(width) | notes)
        .map("".join),
    )


@st.composite
def counts_files(draw):
    width = draw(st.integers(1, 150))
    labels = " ".join(f"b{i}" for i in range(width))
    head = draw(
        st.sampled_from([[f"layout: {labels}", "scheme: new"]] * 4 + [[f"layout: {labels}"], []])
    )
    lines = head + draw(st.lists(_data_line(width), min_size=1, max_size=20))
    for at, line in draw(st.lists(st.tuples(st.integers(0, 24), _other_lines(width)), max_size=6)):
        lines.insert(at, line)
    ends = [draw(_LINE_ENDS) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends)).encode()


@settings(max_examples=300, deadline=None)
@given(data=counts_files(), broken=st.integers(0, 19), at=st.integers(0, 1 << 12))
@example(data=b"", broken=1, at=0)
@example(data=b"layout: a b\nscheme: new\n", broken=1, at=0)
@example(data="layout: a\n0\x85layout: a b\n01 4\n".encode(), broken=1, at=0)
@example(data=b"layout: a\n1 9223372036854775807\n1 0", broken=1, at=0)
@example(data=b"layout: a\r\n1 9223372036854775808\r\n", broken=1, at=0)
@example(data=b"layout: a b\r01 5\r\r\n10\t3\x0b11 0004\x0c", broken=1, at=0)
@example(data=b"layout: a b\n011 5\n 0 5\n", broken=1, at=0)  # the first wrong length
def test_bulk_reader_matches_the_per_line_reader(tmp_path_factory, data, broken, at):
    if not broken:  # a byte that is not UTF-8
        at %= len(data) + 1
        data = data[:at] + b"\xff" + data[at:]
    path = tmp_path_factory.mktemp("counts") / "counts.txt"
    path.write_bytes(data)
    _assert_same(path)


@pytest.mark.parametrize("line", ["0a 5", "0/ 5", "01 1x", "01 :", "01 /", "01x5", "01\x005"])
def test_a_near_canonical_line_is_malformed(line, tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(f"layout: a b\n10 4\n{line}\n11 3\n")
    assert _assert_same(path) == ("DataError", f"{path}:3: expected '<bitstring> <count>', got {line!r}")


@pytest.mark.parametrize("end", list(_BREAKS[2:]))
def test_a_rarer_line_end_can_hide_the_last_layout(end, tmp_path):
    path = tmp_path / "counts.txt"
    path.write_bytes(f"layout: a b\n1 5{end}layout: a\n10 4\n".encode())
    expected = f"{path}: bitstring length 2 does not match the 1-bit layout (a)"
    assert _assert_same(path) == ("DataError", expected)


def test_bundled_counts_read_alike():
    with resources.as_file(resources.files("multiswap") / "data" / "reference_counts.txt") as path:
        labels, scheme, bits, counts = _assert_same(path)
    assert (len(labels), scheme, sum(counts)) == (8, "new", 8192)


@pytest.mark.parametrize("width", [1, 7, 64, 142])
def test_written_counts_read_alike(width, tmp_path):
    rng = np.random.default_rng(width)
    bits = rng.integers(0, 2, size=(300, width))
    counts = rng.integers(0, 2**63 // 300, size=300)  # any total fits in int64
    counts[::7] = rng.integers(0, 10, size=len(counts[::7]))
    table = CountsTable(tuple(f"q{i}" for i in range(width)), "san", bits, counts)
    write_counts(tmp_path / "counts.txt", table, comments=("written", "in bulk"))
    labels, scheme, read_bits, read_counts_ = _assert_same(tmp_path / "counts.txt")
    assert (labels, scheme) == (table.labels, table.scheme)
    assert read_bits == table.bits.tolist() and read_counts_ == table.counts.tolist()


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_canonical_lines_skip_the_per_line_rules(end, tmp_path, monkeypatch):
    # shaped like the replay benchmark's file: 256 states, 14 ancilla bits
    # and 128 result bits, 16,384 distinct outcomes
    rng = np.random.default_rng(256)
    words = rng.choice(1 << 14, size=16384, replace=False)
    ancillas = (words[:, None] >> np.arange(13, -1, -1)) & 1
    bits = np.hstack([ancillas, rng.integers(0, 2, size=(16384, 128))])
    labels = tuple(f"s{i}" for i in range(1, 15)) + tuple(f"r{i}" for i in range(1, 129))
    table = CountsTable(labels, "new", bits, rng.integers(1, 200, size=16384))
    path = tmp_path / "counts.txt"
    write_counts(path, table)
    path.write_bytes(path.read_bytes().replace(b"\n", end))
    handed = []
    rules = fileio._line_rules
    monkeypatch.setattr(fileio, "_line_rules", lambda line: handed.append(line) or rules(line))
    loaded = fileio.read_counts(path)
    assert handed == ["layout: " + " ".join(labels), "scheme: new"]
    assert np.array_equal(loaded.bits, table.bits)
    assert np.array_equal(loaded.counts, table.counts)
