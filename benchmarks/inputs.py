"""Seeded inputs for the benchmark workloads and the known-defect probe.

Everything the program sees is written here from the benchmark seed: state
files, and for the replay workload the counts file. The same seed always
gives byte-identical files. No program code is imported, so the inputs stay
independent of the code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One fixed CLI invocation shape."""

    name: str
    command: str  # "estimate" or "replay"
    states: int  # real input states, a power of two
    width: int  # qubits per state
    shots: int
    engine: str = ""  # estimate only
    identical: bool = False  # every state equal (overlaps all 1)
    why: str = ""

    @property
    def ancillas(self) -> int:
        return 2 * (self.states.bit_length() - 2)

    @property
    def slots(self) -> int:
        return self.states // 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "oracle_n64", "estimate", 64, 1, 100_000, engine="oracle",
            why="closed-form oracle engine at the largest size that decodes "
            "correctly; tally-bound",
        ),
        Workload(
            "statevector_q24", "estimate", 8, 2, 8192, engine="statevector",
            why="dense engine at 24 qubits (256 MiB state, 36 gates); "
            "statevector-bound",
        ),
        Workload(
            "replay_n256", "replay", 256, 1, 1_000_000, identical=True,
            why="reads a 16384-line counts file for 256 states; decoder and "
            "coverage-map bound",
        ),
    )
}

#: Untimed probe of the oracle's mis-decode from 64 slots up. It is not a
#: workload and never counts as a failed invocation; it reports FAIL until
#: the oracle is fixed beyond 63 slots.
PROBE = Workload(
    "probe.oracle_n128", "estimate", 128, 1, 5000, engine="oracle", identical=True,
    why="known defect: the oracle packs shots into int64 keys, which "
    "overflow from 64 slots up",
)


def random_states(rng: np.random.Generator, count: int, width: int, identical: bool):
    """Haar-random states as complex arrays; one repeated state if identical."""
    dim = 2**width
    draws = 1 if identical else count
    v = rng.normal(size=(draws, dim)) + 1j * rng.normal(size=(draws, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.repeat(v, count, axis=0) if identical else v


def states_doc(states: np.ndarray, width: int) -> dict:
    return {
        "width": width,
        "states": [[[float(a.real), float(a.imag)] for a in row] for row in states],
    }


def replay_counts(rng: np.random.Generator, w: Workload) -> np.ndarray:
    """Counts per ancilla outcome when every overlap is 1.

    Then the ancilla marginal is uniform over its 2**d outcomes and every
    verdict bit is 0, so this multinomial is the circuit's exact outcome
    distribution.
    """
    outcomes = 1 << w.ancillas
    return rng.multinomial(w.shots, np.full(outcomes, 1.0 / outcomes))


def write_counts_file(path: Path, w: Workload, per_outcome: np.ndarray) -> None:
    d, slots = w.ancillas, w.slots
    lines = [
        "layout: "
        + " ".join([f"s{i + 1}" for i in range(d)] + [f"r{i + 1}" for i in range(slots)]),
        "scheme: new",
    ]
    zeros = "0" * slots
    lines += [
        f"{format(outcome, f'0{d}b')}{zeros} {int(count)}"
        for outcome, count in enumerate(per_outcome)
        if count
    ]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Inputs:
    """Files generated for one workload, plus what the checker needs."""

    workload: Workload
    seed: int
    states_path: Path
    counts_path: Path | None
    states: np.ndarray

    def argv(self, out_dir: Path) -> list[str]:
        """CLI arguments of one invocation writing into ``out_dir``."""
        w = self.workload
        if w.command == "replay":
            return ["replay", str(self.counts_path), str(self.states_path),
                    "--out-dir", str(out_dir)]
        return ["estimate", str(self.states_path), "--engine", w.engine,
                "--shots", str(w.shots), "--seed", str(self.seed),
                "--out-dir", str(out_dir)]


def generate(w: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's input files for ``seed`` under ``directory``."""
    rng = np.random.default_rng([seed, w.states, w.width])
    directory.mkdir(parents=True, exist_ok=True)
    states = random_states(rng, w.states, w.width, w.identical)
    states_path = directory / "states.json"
    states_path.write_text(json.dumps(states_doc(states, w.width)) + "\n")
    counts_path = None
    if w.command == "replay":
        counts_path = directory / "counts.txt"
        write_counts_file(counts_path, w, replay_counts(rng, w))
    return Inputs(w, seed, states_path, counts_path, states)
