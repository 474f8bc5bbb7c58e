"""Malformed input files reach the CLI's exit-code contract, never a crash.

A valid states JSON, counts file and reference CSV are mutated byte by byte
(bit flips, truncations, inserted bytes, 0xFF among them) and handed to
``estimate`` and ``replay``. A mutation may leave a file valid, so exit 0 is
allowed; otherwise the exit code is 2 (configuration) or 3 (data), never 1
or an exception, and a file that no longer decodes as text is a data error.
Byte flips rarely yield a well-formed value of the wrong type, so the states
document and the reference CSV are also mutated by type: one field is
replaced by a bool, null, string, huge int, nested list or NaN. Every case
is small (six states of width 1, 256 shots), so no case allocates much or
starts a thread.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_ensemble
from multiswap.cli import main
from multiswap.fileio import save_states

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(0, 7)),
        st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
        st.tuples(
            st.just("insert"),
            st.integers(0, 1 << 16),
            st.one_of(st.just(b"\xff"), st.binary(min_size=1, max_size=4)),
        ),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, ops) -> bytes:
    out = bytearray(data)
    for op in ops:
        at = op[1] % (len(out) + 1)
        if op[0] == "flip" and at < len(out):
            out[at] ^= 1 << op[2]
        elif op[0] == "truncate":
            del out[at:]
        elif op[0] == "insert":
            out[at:at] = op[2]
    return bytes(out)


def _decodes(data: bytes) -> bool:
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    return True


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A valid states file, counts file and reference CSV of one small run."""
    root = tmp_path_factory.mktemp("fuzz")
    states = root / "states.json"
    save_states(states, random_ensemble(np.random.default_rng(12), 6))
    out = root / "run"
    argv = ["estimate", str(states), "--shots", "256", "--seed", "3", "--out-dir", str(out)]
    assert _run(argv) == 0
    return root, {
        "states": states.read_bytes(),
        "counts": (out / "counts.txt").read_bytes(),
        "reference": (out / "estimates.csv").read_bytes(),
    }


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _commands(root, kind: str, path: str) -> list[list[str]]:
    states, counts = str(root / "states.json"), str(root / "run" / "counts.txt")
    if kind == "states":
        return [
            ["estimate", path, "--shots", "256", "--out-dir", str(root / "out")],
            ["replay", counts, path],
        ]
    if kind == "counts":
        return [["replay", path, states]]
    return [["replay", counts, states, "--reference", path]]


@pytest.mark.parametrize("kind", ["states", "counts", "reference"])
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
@example(ops=[("insert", 0, b"\xff")])
def test_mutated_input_files_exit_2_or_3(inputs, kind, ops):
    root, valid = inputs
    data = _mutate(valid[kind], ops)
    path = root / f"mutated_{kind}"
    path.write_bytes(data)
    for argv in _commands(root, kind, str(path)):
        code = _run(argv)
        assert code in (0, 2, 3), argv
        if not _decodes(data):
            assert code == 3, argv


#: values of the wrong type for any states-document field; the nested list
#: is neither a number, an [re, im] pair nor a state of this width
_WRONG = st.sampled_from([True, False, None, "0.6", 10**400, [[[0.6]]], float("nan")])

#: the field to replace: the width, a state, an amplitude, or an [re, im] part
_FIELDS = st.one_of(
    st.tuples(st.just("width")),
    st.tuples(st.just("states"), st.integers(0, 5)),
    st.tuples(st.just("states"), st.integers(0, 5), st.integers(0, 1)),
    st.tuples(st.just("states"), st.integers(0, 5), st.integers(0, 1), st.integers(0, 1)),
)


@st.composite
def _retyped_states(draw) -> str:
    """A valid six-state document with one field retyped, as JSON text."""
    doc = {"width": 1, "states": [[[0.6, 0.0], [0.0, 0.8]] for _ in range(6)]}
    field, value = draw(_FIELDS), draw(_WRONG)
    holder, key = doc, field[0]
    for index in field[1:]:
        holder, key = holder[key], index
    holder[key] = value
    return json.dumps(doc)


@settings(max_examples=80, deadline=None)
@given(text=_retyped_states())
@example(text='{"width": true, "states": [[true, false], [0.6, 0.8], [false, true], [0, 1]]}')
@example(text='{"width": 1, "states": [[1%s, 0], [0.6, 0.8]]}' % ("0" * 400))
@example(text="[" * 100_000 + "]" * 100_000)
def test_retyped_states_exit_3(inputs, text):
    root, _ = inputs
    path = root / "retyped_states.json"
    path.write_text(text)
    argv = ["estimate", str(path), "--shots", "256", "--out-dir", str(root / "out")]
    assert _run(argv) == 3  # every retyped document is invalid


@settings(max_examples=40, deadline=None)
@given(
    row=st.integers(0, 14),
    column=st.sampled_from(["pair_i", "pair_j", "estimate"]),
    value=st.sampled_from(["true", "", "null", "nan", "1" + "0" * 400, "[[1]]"]),
)
@example(row=0, column="pair_i", value="99999999999999999999999")
def test_retyped_reference_exit_0_2_or_3(inputs, row, column, value):
    root, valid = inputs
    lines = valid["reference"].decode().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = value
    lines[1 + row] = ",".join(cells)
    path = root / "retyped_reference.csv"
    path.write_text("\n".join(lines) + "\n")
    counts, states = str(root / "run" / "counts.txt"), str(root / "states.json")
    assert _run(["replay", counts, states, "--reference", str(path)]) in (0, 2, 3)
