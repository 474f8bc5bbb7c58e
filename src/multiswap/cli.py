"""Command-line surface: build, estimate, replay, analyze, export-table.

Exit codes: 0 success, 2 configuration error (running out of memory too),
3 data error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

# before numpy loads: on 2 CPUs an idle OpenBLAS worker cost each run 0.1-0.15 s of CPU
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import analytics, fixtures
from .builder import (
    FINAL_VARIANTS,
    SCHEMES,
    assemble,
    check_table,
    decode_all,
    layout_plan,
)
from .estimation import ENGINES, DataError, decide, estimate_all_overlaps, layout_for, replay
from .fileio import (
    load_states,
    read_counts,
    read_reference_estimates,
    table_to_dict,
    write_counts,
    write_csv,
)
from .qasm import to_qasm

# the start-up objects live as long as the process: later collections skip them
# and exit does not walk them (exit 21-33 -> 5-11 ms per run on 2 CPUs); gc stays on
gc.freeze()

# flagged pairs ``replay`` prints when it also writes them to replay.csv
_REPLAY_SHOWN = 20


class ConfigError(ValueError):
    """Invalid configuration (bad flag values, impossible engine choice)."""


def _add_common(parser, *, shots=True):
    parser.add_argument("states", help="input state file (JSON)")
    parser.add_argument("--scheme", choices=SCHEMES, default="new")
    parser.add_argument(
        "--final", choices=FINAL_VARIANTS, default="standard",
        help="final swap-test variant",
    )
    parser.add_argument(
        "--normalize", action="store_true",
        help="renormalize inputs regardless of how far off their norm is",
    )
    if shots:
        parser.add_argument("--shots", type=int, default=8192)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--engine", choices=ENGINES, default="auto")
        parser.add_argument("--out-dir", default=".")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiswap",
        description="Build and simulate multi-state swap-test circuits and "
        "estimate all pairwise overlaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a circuit and report its resources")
    _add_common(p, shots=False)
    p.add_argument("--qasm", metavar="FILE", help="write the circuit as OpenQASM 2.0")
    p.add_argument(
        "--decompose-cswap", action="store_true",
        help="expand cswap/swap into cx and ccx in the QASM output",
    )

    p = sub.add_parser("estimate", help="run the full estimation pipeline")
    _add_common(p)

    p = sub.add_parser("replay", help="decode a recorded counts file")
    p.add_argument("counts", help="counts file (or 'bundled' for the shipped record)")
    p.add_argument("states", help="input state file (or 'bundled')")
    p.add_argument(
        "--reference", default="exact",
        help="'exact', 'bundled', or a CSV of reference values per pair",
    )
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out-dir", help="write replay.csv here instead of printing")

    p = sub.add_parser("analyze", help="emit resource and precision tables")
    p.add_argument("--max-k", type=int, default=5, help="largest size is n = 2**max_k")
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--out-dir", default=".")

    p = sub.add_parser("export-table", help="export a decoder table as JSON")
    p.add_argument("--n", type=int, required=True, help="register count (power of two)")
    p.add_argument("--scheme", choices=SCHEMES, default="new")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    return parser


def _load(path: str, normalize: bool):
    if path == "bundled":
        return fixtures.load_ensemble(0)
    return load_states(path, renormalize=normalize)


def cmd_build(args) -> int:
    ensemble = _load(args.states, args.normalize)
    padded, plan = layout_for(ensemble, args.scheme, args.final)
    circuit = assemble(plan)
    network_cswaps = len(plan.controlled_swaps) * plan.width
    print(f"scheme: {args.scheme}")
    if padded.n > ensemble.n:
        pads = padded.n - ensemble.n
        print(f"inputs: {ensemble.n}, padding to {padded.n} with {pads} |0> states")
    print(
        f"summary: {padded.n} inputs, {plan.ancilla_count} ancillas, "
        f"{network_cswaps} CSWAPs (+{len(plan.slots)} final tests)"
    )
    print(f"final variant: {args.final}")
    print(f"qubits: {circuit.qubit_count}, gates: {len(circuit.gates)}")
    if args.qasm:
        Path(args.qasm).write_text(
            to_qasm(circuit, decompose_cswap=args.decompose_cswap)
        )
        print(f"qasm written to {args.qasm}")
    return 0


def cmd_estimate(args) -> int:
    ensemble = _load(args.states, args.normalize)
    run = decide(ensemble, args.scheme, args.shots, args.seed, args.final, args.engine)
    # an unusable output path fails here, not after the simulation
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = estimate_all_overlaps(run)
    except MemoryError as exc:  # numpy names the size it could not allocate
        raise ConfigError(
            f"out of memory in a run of {ensemble.n} registers of width {ensemble.width}, "
            f"--shots {args.shots}, --engine {args.engine}: {exc}"
        ) from None
    write_csv(out / "estimates.csv", result.estimates.columns())
    scatter, summary = analytics.scatter_data(result.estimates)
    write_csv(out / "scatter.csv", scatter)
    write_counts(
        out / "counts.txt",
        result.counts,
        comments=(
            f"engine={run.engine} shots={run.shots} seed={run.seed} "
            f"final={run.plan.final_variant}",
        ),
    )
    print(f"{len(result.estimates)} pair estimates written to {out / 'estimates.csv'}")
    print(f"engine: {run.engine}")
    print(f"max |estimate - exact|: {summary.max_abs_error:.4f}, rmse: {summary.rmse:.4f}")
    return 0


def cmd_replay(args) -> int:
    ensemble = _load(args.states, args.normalize)
    if args.counts == "bundled":
        counts = fixtures.reference_counts()
    else:
        counts = read_counts(args.counts)
    if args.reference == "exact":
        reference = None
    elif args.reference == "bundled":
        reference = fixtures.reference_estimates()
    else:
        reference = read_reference_estimates(args.reference)
    report = replay(counts, ensemble, reference=reference, tolerance=args.tolerance)
    est = report.estimates
    flagged = np.flatnonzero(report.flags != "ok")
    print(f"total shots: {report.total_shots}")
    print(f"pairs: {len(est)}, flagged: {len(flagged)}")
    # with a report file the printout names only the first flagged pairs
    shown = flagged[:_REPLAY_SHOWN] if args.out_dir else flagged
    for i, j, flag in zip(est.pair_i[shown].tolist(), est.pair_j[shown].tolist(),
                          report.flags[shown].tolist()):
        print(f"  {(i, j)}: {flag}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "replay.csv", report.columns())
        if len(flagged) > len(shown):
            print(f"  ... and {len(flagged) - len(shown)} more in {out / 'replay.csv'}")
        print(f"report written to {out / 'replay.csv'}")
    else:
        rows = zip(est.pair_i.tolist(), est.pair_j.tolist(), est.exact.tolist(),
                   est.estimate.tolist(), est.samples.tolist(), report.flags.tolist())
        for i, j, exact, value, samples, flag in rows:
            shown = "unsampled" if np.isnan(value) else f"estimate={value:.4f}"
            print(f"({i},{j}) exact={exact:.4f} {shown} samples={samples} flag={flag}")
    return 0


def cmd_analyze(args) -> int:
    # the precision model divides by 2**k * (2**k - 1) as a float
    top = (sys.float_info.max_exp - 1) // 2
    if not 2 <= args.max_k <= top:
        raise ConfigError(f"--max-k must be in 2..{top}, got {args.max_k}")
    if not 1 <= args.shots <= sys.float_info.max / 2:  # it doubles shots as a float too
        raise ConfigError(f"--shots must be >= 1 and at most {sys.float_info.max / 2:.6g}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = analytics.resource_report(args.max_k)
    write_csv(
        out / "resources.csv",
        {col: [row[col] for row in rows] for col in analytics.RESOURCE_COLUMNS},
    )
    models = [analytics.precision(row["n"], args.shots) for row in rows]
    names = ("n", "shots", "baseline_per_pair", "multiplexed_per_pair", "ratio")
    write_csv(
        out / "precision.csv",
        {name: [getattr(model, name) for model in models] for name in names},
    )
    conflicts = sum(1 for r in rows if r["formula_conflict"])
    print(f"{len(rows)} rows written to {out / 'resources.csv'} and precision.csv")
    print(f"rows with conflicting circulated formulas: {conflicts}")
    return 0


def cmd_export_table(args) -> int:
    # the table's size follows from scheme and n: refuse before planning
    check_table(args.scheme, args.n)
    plan = layout_plan(args.scheme, args.n)
    name = f"{args.scheme}_n{args.n}"
    reference = fixtures.reference_table_rows(name) if name in fixtures.reference_tables() else None
    doc = table_to_dict(plan, decode_all(plan), reference_rows=reference)
    text = json.dumps(doc, indent=1)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"table written to {args.output}")
    else:
        print(text)
    return 0


_COMMANDS = {
    "build": cmd_build,
    "estimate": cmd_estimate,
    "replay": cmd_replay,
    "analyze": cmd_analyze,
    "export-table": cmd_export_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"config error: out of memory in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
