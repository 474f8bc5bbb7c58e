"""Every demo runs and prints what it printed when its output was recorded.

The recorded text lives in ``tests/demo_output/<demo>.txt``. Only the oracle
demo's elapsed-time field is masked, since it varies from run to run.
"""

import re
from pathlib import Path

import pytest

from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ELAPSED = re.compile(r"elapsed \d+(\.\d+)?s")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_recorded_output(demo):
    proc = run_python(str(demo), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    expected = (Path(__file__).parent / "demo_output" / f"{demo.stem}.txt").read_text()
    assert ELAPSED.sub("elapsed _s", proc.stdout) == ELAPSED.sub("elapsed _s", expected)
