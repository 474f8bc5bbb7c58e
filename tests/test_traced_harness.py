"""Smoke test of the benchmark's traced run against the current package.

``benchmarks/traced.py`` wraps every public ``multiswap`` function and
imports a few names directly, so removing or renaming one of those breaks the
benchmark; this test runs it as the benchmark does, in a fresh interpreter.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from multiswap.builder import build_un

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "benchmarks" / "traced.py"


def test_traced_statevector_estimate_writes_spans(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(TRACED), str(trace), "estimate", "bundled",
         "--shots", "64", "--engine", "statevector", "--out-dir", str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    assert doc["exit_code"] == 0
    names = {span[0] for span in doc["spans"]}
    assert {
        "cli.main",
        "estimation.estimate_all_overlaps",
        "sim.measured_distribution",
        "estimation.tally",
        "fileio.write_csv",
    } <= names
    assert all(start <= end for _, start, end, _ in doc["spans"])
    # the estimate path never calls run_statevector, so the run itself takes
    # no gate probes; the probes are exercised directly below
    assert doc["gate_probes"] == {}
    assert doc["counters"]["circuits.gate_count"] == 24


def test_traced_gate_probes_time_each_gate_kind():
    # loading the script instruments nothing and writes no bytecode cache
    traced = runpy.run_path(str(TRACED), run_name="traced")
    probes = traced["gate_probes"](build_un(4)[0])
    assert sorted(probes) == ["CSWAP", "H"]
    assert all(seconds >= 0 for seconds in probes.values())
