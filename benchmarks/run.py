"""Benchmark of the multiswap command-line tool, end to end and per layer.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 benchmarks/run.py --workload oracle_n64 --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 40 --trace 1

Each timed invocation is a fresh ``python3`` process running the CLI entry
point on seeded input files, one at a time from this single process. Every
invocation's outputs go through the checker in ``check.py``. ``--trace 1``
adds one traced in-process run of the same arguments (``traced.py``), which
splits the invocation into per-layer spans, plus the untimed known-defect
probe. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in turn and prefixes each metric with its workload.
Scratch files live under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from check import check_invocation, exact_overlaps, output_rows, self_test
from inputs import PROBE, WORKLOADS, Inputs, Workload, generate

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
HERE = Path(__file__).resolve().parent
#: the console-script entry point, spelled out so no install is needed
CLI = "import sys; from multiswap.cli import main; sys.exit(main())"
MIN_INVOCATIONS = 3
SETUP_REPEATS = 9
#: one workload's run must end within this many seconds of starting
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}

#: per-layer span totals: metric -> span name
SPAN_TOTALS = {
    "fileio.load_states_s": "fileio.load_states",
    "fileio.read_counts_s": "fileio.read_counts",
    "fileio.write_counts_s": "fileio.write_counts",
    "fileio.write_csv_s": "fileio.write_csv",
    "builder.build_un_s": "builder.build_un",
    "builder.derive_permutation_table_s": "builder.derive_permutation_table",
    "builder.pair_coverage_map_s": "builder.pair_coverage_map",
    "builder.initial_state_s": "builder.initial_state",
    "states.tensor_product_s": "states.tensor_product",
    "states.exact_overlap_s": "states.exact_overlap",
    "sim.run_statevector_s": "sim.run_statevector",
    "sim.sample_from_distribution_s": "sim.sample_from_distribution",
    "estimation.oracle_sample_s": "estimation.oracle_sample",
    "estimation.estimate_s": "estimation.estimate",
    "analytics.scatter_data_s": "analytics.scatter_data",
}
#: per-layer self times (span time minus child spans): metric -> span name
SPAN_SELF = {
    "sim.measured_distribution_self_s": "sim.measured_distribution",
    "estimation.tally_self_s": "estimation.tally",
    "estimation.estimate_all_overlaps_self_s": "estimation.estimate_all_overlaps",
    "estimation.replay_self_s": "estimation.replay",
}
#: counts recorded at span boundaries by traced.py: metric -> unit
COUNTS = {
    "fileio.counts_bytes": "B",
    "builder.decoder_rows": "count",
    "circuits.gate_count": "count",
    "sim.state_bytes": "B",
    "estimation.distinct_outcomes": "count",
}
PER_LAYER = {
    "cli.self_s": "s",
    **{name: "s" for name in SPAN_TOTALS},
    **{name: "s" for name in SPAN_SELF},
    **COUNTS,
    "sim.cswap_gate_s": "s",
    "sim.h_gate_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "probe.oracle_n128.pairs_sampled": "count",
}


class Spawner:
    """Runs child interpreters one at a time, within one workload's time limit."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def run(self, args: list[str], log: Path):
        """(exit code, wall seconds, rusage) of ``python3 <args>``."""
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(log, "w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], env=self.env, cwd=ROOT,
                stdout=fh, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        return proc.returncode, wall, usage


def measure_setup(spawner: Spawner, log: Path) -> float:
    """Median wall time of a fresh interpreter importing ``multiswap.cli``.

    One untimed import first writes the bytecode cache, which a user's
    installed copy also has.
    """
    args = ["-c", "import multiswap.cli"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        code, wall, _ = spawner.run(args, log)
        if code != 0:
            raise RuntimeError(f"importing multiswap.cli failed:\n{log.read_text()}")
        times.append(wall)
    return statistics.median(times[1:])


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer span times and counts of one traced run."""
    spans = trace["spans"]
    duration = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    for (_, _, _, parent), dur in zip(spans, duration):
        if parent is not None:
            children[parent] += dur
    total, own = defaultdict(float), defaultdict(float)
    for (name, *_), dur, child in zip(spans, duration, children):
        total[name] += dur
        own[name] += dur - child
    metrics = {"cli.self_s": sum(v for k, v in own.items() if k.startswith("cli."))}
    metrics.update({m: total[s] for m, s in SPAN_TOTALS.items()})
    metrics.update({m: own[s] for m, s in SPAN_SELF.items()})
    metrics.update({m: trace["counters"].get(m, 0) for m in COUNTS})
    probes = trace["gate_probes"]
    metrics["sim.cswap_gate_s"] = probes.get("CSWAP", 0.0)
    metrics["sim.h_gate_s"] = probes.get("H", 0.0)
    metrics["trace.main_s"] = total["cli.main"]
    return metrics


def run_probe(spawner: Spawner, seed: int, work: Path) -> dict:
    """The known-defect probe: PASS or FAIL through the same checker."""
    inp = generate(PROBE, seed, work / "probe_in")
    out = work / "probe_out"
    code, _, _ = spawner.run(["-c", CLI, *inp.argv(out)], work / "probe.log")
    problems = check_invocation(inp, out, code)
    try:
        rows, _ = output_rows(inp, out)
        sampled = sum(1 for r in rows if r.get("estimate"))
    except (OSError, ValueError):
        sampled = 0
    return {"name": PROBE.name, "status": "FAIL" if problems else "PASS",
            "problems": problems, "pairs_sampled": sampled, "why": PROBE.why}


def run_workload(w: Workload, seed: int, seconds: float, trace_path: Path | None,
                 spawner: Spawner) -> dict:
    """Time, check and optionally trace one workload; returns its record."""
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        inp = generate(w, seed, work / "in")
        setup_s = measure_setup(spawner, work / "setup.log")
        out = work / "out"
        argv = ["-c", CLI, *inp.argv(out)]
        invocations, reference, selftest_missed = [], None, None
        stop_at = time.perf_counter() + seconds
        while True:
            shutil.rmtree(out, ignore_errors=True)
            code, wall, usage = spawner.run(argv, work / "cli.log")
            problems = check_invocation(inp, out, code)
            invocations.append({
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mib": usage.ru_maxrss / 1024.0,
                "problems": problems,
            })
            if not problems and reference is None:
                reference = digests(out)
                rows, shots_in_file = output_rows(inp, out)
                selftest_missed = self_test(
                    rows, w, exact_overlaps(inp.states), shots_in_file)
            walls = [i["wall_s"] for i in invocations]
            if (len(invocations) >= MIN_INVOCATIONS
                    and time.perf_counter() + statistics.median(walls) > stop_at):
                break
        record = {
            "workload": w.name, "why": w.why, "seed": seed, "shots": w.shots,
            "invocations": invocations,
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mib": statistics.median(i["peak_rss_mib"] for i in invocations),
            "cpu_s": statistics.median(i["cpu_s"] for i in invocations),
            "attempted": len(invocations),
            "failed": sum(1 for i in invocations if i["problems"]),
            "checker_self_test_missed": selftest_missed,
        }
        if trace_path:
            record.update(traced_run(inp, argv, reference, trace_path, work, spawner))
            record["layers"]["process.cpu_s"] = record["cpu_s"]
            record["layers"]["trace.overhead_s"] = (
                record["layers"].pop("trace.main_s") - (record["wall_s"] - setup_s))
            record["probe"] = run_probe(spawner, seed, work)
            record["layers"]["probe.oracle_n128.pairs_sampled"] = (
                record["probe"]["pairs_sampled"])
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def traced_run(inp: Inputs, argv: list[str], reference, trace_path: Path,
               work: Path, spawner: Spawner) -> dict:
    """One traced invocation with the timed runs' arguments and output dir."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    code, _, _ = spawner.run(
        [str(HERE / "traced.py"), str(trace_path), *argv[2:]],
        work / "traced.log",
    )
    problems = check_invocation(inp, out, code)
    if not problems and digests(out) != reference:
        problems.append("traced outputs differ from the untraced run's")
    layers = {name: 0.0 for name in PER_LAYER}
    trace = {}
    if code == 0:
        trace = json.loads(trace_path.read_text())
        layers.update(layer_metrics(trace))
    return {"layers": layers, "trace_problems": problems,
            "trace_run_id": trace.get("run_id")}


def _first_line(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            return next((l.split(":", 1)[1].strip() for l in fh if l.startswith(key)), "")
    except OSError:
        return ""


def _blas_threads() -> str:
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _last_level_cache() -> str:
    caches = sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"))
    try:
        return Path(caches[-1]).read_text().strip() if caches else "unknown"
    except OSError:
        return "unknown"


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "multiswap").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _first_line("/proc/cpuinfo", "model name") or platform.machine(),
        "last_level_cache": _last_level_cache(),
        "cache_note": "statevector_q24's 256 MiB state is under 4x the last-level "
        "cache, so its times are not a memory-bandwidth measurement",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def report(record: dict, trace: bool, prefix: str = "") -> dict:
    """Print one workload's metrics by name and unit; return the JSON metrics."""
    name = record["workload"]
    n = record["attempted"]
    print(f"{name}: {n} invocations, {record['failed']} failed")
    units = PER_LAYER if trace else END_TO_END
    values = record["layers"] if trace else record
    metrics = {f"{prefix}{k}": {"value": values[k], "unit": u} for k, u in units.items()}
    for k, u in END_TO_END.items():
        count = SETUP_REPEATS if k == "setup_s" else n
        print(f"  {k:40s} {record[k]:.6g} {u} (median of {count})")
    print(f"  {'fail_frac':40s} {record['failed'] / n:.6g} ratio")
    print(f"  {'cpu_s (diagnostic, not gated)':40s} {record['cpu_s']:.6g} s (median of {n})")
    if trace:
        for k, u in PER_LAYER.items():
            print(f"  {k:40s} {record['layers'][k]:.6g} {u}")
        probe = record["probe"]
        print(f"  {probe['name']}: {probe['status']}"
              + (f" ({probe['why']}; {'; '.join(probe['problems'])})"
                 if probe["problems"] else ""))
    return metrics


def failures(record: dict) -> list[str]:
    out = [f"invocation {i}: {p}" for i, inv in enumerate(record["invocations"])
           for p in inv["problems"]]
    if record["checker_self_test_missed"]:
        out.append(f"checker accepted corrupted output: {record['checker_self_test_missed']}")
    out += [f"traced run: {p}" for p in record.get("trace_problems", [])]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Let SIGTERM unwind like Ctrl-C, so the running child is killed and
    # reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "multiswap" / "cli.py").is_file():
        print(f"no multiswap source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = args.workload == "all"
    info = provenance(args.seed)
    print("provenance:", json.dumps(info))
    metrics, attempted, failed, correct = {}, 0, 0, True
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    for name in names:
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        trace_path = results_dir / f"{stem}.spans.json" if args.trace else None
        record = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              trace_path, Spawner(time.perf_counter()))
        metrics.update(report(record, bool(args.trace), f"{name}." if prefix else ""))
        problems = failures(record)
        for p in problems:
            print(f"  FAILED {p}")
        attempted += record["attempted"] + bool(args.trace)
        failed += record["failed"] + bool(record.get("trace_problems"))
        correct = correct and not problems
        record["provenance"] = info
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
