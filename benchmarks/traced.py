"""One traced in-process CLI invocation, split into spans per public function.

Usage: python3 benchmarks/traced.py TRACE_JSON <multiswap args>

Every public function of every ``multiswap.*`` module is wrapped at every
name it is bound to in those module namespaces, so calls made through
another module's globals (``estimation`` calling ``tally``, ``sim`` calling
``run_statevector``) are seen too. Then ``multiswap.cli.main`` runs with the
given arguments. Each span records its name, start, end and parent span;
spans stay in memory and are written to TRACE_JSON when the run ends, with
the counts recorded at the same boundaries.

If the run used the statevector engine, ``sim.run_statevector`` is then
timed on one-gate circuits (one CSWAP, one H, taken from the circuit the
run simulated) at the run's qubit count.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import statistics
import sys
import time
import uuid

import multiswap
from multiswap.circuits import CircuitIR
from multiswap.sim import run_statevector
from multiswap.states import basis_state

GATE_PROBE_REPEATS = 3


def _file_size(args, result):
    return os.path.getsize(args[0])


#: counts recorded when a span ends: span name -> (counter, f(args, result))
COUNTERS = {
    "builder.build_un": ("circuits.gate_count", lambda a, r: len(r[0].gates)),
    "builder.derive_permutation_table": ("builder.decoder_rows", lambda a, r: len(r.rows)),
    "sim.run_statevector": ("sim.state_bytes", lambda a, r: 16 * 2 ** a[0].qubit_count),
    "estimation.tally": ("estimation.distinct_outcomes", lambda a, r: len(a[0].counts)),
    "fileio.write_counts": ("fileio.counts_bytes", _file_size),
    "fileio.read_counts": ("fileio.counts_bytes", _file_size),
}


class Tracer:
    """Spans as [name, start, end, parent index], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.simulated: CircuitIR | None = None
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter:
                self.counters[counter[0]] = counter[1](args, result)
            if name == "sim.run_statevector":
                self.simulated = args[0]
            return result

        return traced

    def instrument(self) -> None:
        """Rebind every public multiswap function to its traced wrapper."""
        modules = [multiswap] + [
            importlib.import_module(f"multiswap.{info.name}")
            for info in pkgutil.iter_modules(multiswap.__path__)
        ]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith("multiswap.")
                ):
                    continue
                if value not in wrappers:
                    span_name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                    wrappers[value] = self.wrap(value, span_name)
                setattr(module, attr, wrappers[value])


def gate_probes(circuit: CircuitIR) -> dict[str, float]:
    """Median seconds of ``run_statevector`` on one-gate circuits."""
    state = basis_state(circuit.qubit_count)
    out = {}
    for kind in ("CSWAP", "H"):
        gate = next(g for g in circuit.gates if g.kind == kind)
        one = CircuitIR(circuit.qubit_count, circuit.roles, (gate,))
        times = []
        for _ in range(GATE_PROBE_REPEATS):
            start = time.perf_counter()
            run_statevector(one, state)
            times.append(time.perf_counter() - start)
        out[kind] = statistics.median(times)
    return out


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.instrument()
    from multiswap import cli  # the module object; its names are now wrapped

    exit_code = cli.main(cli_args)
    probes = gate_probes(tracer.simulated) if tracer.simulated else {}
    with open(trace_path, "w") as fh:
        json.dump(
            {
                "run_id": uuid.uuid4().hex,
                "exit_code": exit_code,
                "spans": tracer.spans,
                "counters": tracer.counters,
                "gate_probes": probes,
            },
            fh,
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
