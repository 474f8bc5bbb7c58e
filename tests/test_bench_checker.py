"""The benchmark's output checker accepts what the CLI writes.

``benchmarks/check.py`` verifies every benchmark invocation from the files
it wrote, so a writer change the benchmark would reject fails here first.
The checker and its input generator are loaded from their files, as the
benchmark loads them, without writing bytecode under ``benchmarks/``.
"""

import runpy
import sys
from pathlib import Path

import pytest

from multiswap.cli import main

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    saved = sys.dont_write_bytecode, list(sys.path), sys.modules.get("inputs")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        check = runpy.run_path(str(BENCH / "check.py"), run_name="check")
        yield check, sys.modules["inputs"]
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved[0], saved[1]
        if saved[2] is None:
            sys.modules.pop("inputs", None)
        else:
            sys.modules["inputs"] = saved[2]


def test_checker_self_test_rejects_every_corruption(bench):
    check, inputs = bench
    w = inputs.Workload("synthetic_n16", "estimate", 16, 1, 4000)
    rows, exact = check["_synthetic"](w)
    assert check["self_test"](rows, w, exact, w.shots) == []


@pytest.mark.parametrize(
    "shape",
    [
        ("oracle_n16", "estimate", 16, 1, 4000, "oracle", False),
        ("replay_n16", "replay", 16, 1, 20000, "", True),
        ("statevector_q24", "estimate", 8, 2, 8192, "statevector", False),
    ],
    ids=["oracle_estimate", "identical_replay", "statevector_estimate"],
)
def test_checker_accepts_cli_outputs(bench, shape, tmp_path, capsys):
    check, inputs = bench
    name, command, states, width, shots, engine, identical = shape
    w = inputs.Workload(name, command, states, width, shots, engine=engine, identical=identical)
    inp = inputs.generate(w, 3, tmp_path / "inputs")
    out = tmp_path / "out"
    returncode = main(inp.argv(out))
    assert check["check_invocation"](inp, out, returncode) == []
