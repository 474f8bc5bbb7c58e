"""Every demo runs and prints what it printed when its output was recorded.

The recorded text lives in ``tests/demo_output/<demo>.txt``. Only the oracle
demo's elapsed-time field is masked, since it varies from run to run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import multiswap

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ELAPSED = re.compile(r"elapsed \d+(\.\d+)?s")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_recorded_output(demo):
    src = str(Path(multiswap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = (Path(__file__).parent / "demo_output" / f"{demo.stem}.txt").read_text()
    assert ELAPSED.sub("elapsed _s", proc.stdout) == ELAPSED.sub("elapsed _s", expected)
