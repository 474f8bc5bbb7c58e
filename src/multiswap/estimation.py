"""End-to-end overlap estimation: shot runs, tallying, decoding, replay.

Two engines produce shot counts. The statevector engine simulates the full
circuit exactly and samples the measured marginal. The permutation-oracle
engine exploits the network's structure: the ancilla marginal is exactly
uniform, and conditioned on an ancilla outcome each slot is an independent
swap test on a known pair, so counts can be drawn from closed-form
Bernoullis with no statevector. The two induced distributions are equal,
which the test suite checks to machine precision.

Shots stay integer and bit arrays throughout: an ancilla outcome is decoded
into its slot pairs by ``builder.decode`` straight from the layout plan, and
bitstrings appear only in ``fileio``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import san as san_mod
from .builder import FINAL_VARIANTS, LayoutPlan, build_un, decode, input_factors, pad_inputs
from .circuits import CircuitIR
from .sim import MAX_QUBITS, measured_distribution, sample_from_distribution, shot_rng
from .states import StateEnsemble

SCHEMES = ("new", "san")
ENGINES = ("statevector", "oracle", "auto")

_ORACLE_CHUNK = 1 << 15


def _index_bits(values, nbits: int) -> np.ndarray:
    """(len(values), nbits) uint8 binary expansions, most significant bit first."""
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.int64)
    return ((np.asarray(values, dtype=np.int64)[:, None] >> shifts) & 1).astype(np.uint8)


@dataclass(frozen=True)
class CountsTable:
    """Shot counts of distinct outcomes (ancilla bits, then result bits).

    ``bits`` is a (K, len(labels)) uint8 0/1 matrix, one outcome per row with
    its columns in label order; ``counts`` is the matching int64 vector.
    Construction merges duplicate rows by summing their counts and sorts the
    rows in ascending bitstring order, the first label being the most
    significant bit, so rows sharing an ancilla prefix are contiguous.
    """

    labels: tuple[str, ...]
    scheme: str
    bits: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        counts = np.asarray(self.counts, dtype=np.int64)
        width = len(self.labels)
        if width == 0 or bits.ndim != 2 or bits.shape[1] != width or (bits > 1).any():
            raise ValueError(f"outcomes must be a 0/1 matrix with {width} columns")
        if counts.shape != (len(bits),):
            raise ValueError("counts need one entry per outcome row")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        packed = np.packbits(bits, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        merged = np.zeros(len(distinct), dtype=np.int64)
        np.add.at(merged, inverse, counts)
        rows = distinct.view(np.uint8).reshape(len(distinct), packed.shape[1])
        object.__setattr__(self, "bits", np.unpackbits(rows, axis=1, count=width))
        object.__setattr__(self, "counts", merged)

    @property
    def total_shots(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class TallyRecord:
    """Verdict counts pooled over every (outcome, slot) entry testing a pair."""

    pair: tuple[int, int]
    t0: int
    t1: int

    @property
    def samples(self) -> int:
        return self.t0 + self.t1


@dataclass(frozen=True)
class OverlapEstimate:
    """Estimated vs exact overlap for one pair; estimate is None if unsampled."""

    pair: tuple[int, int]
    exact: float | None
    estimate: float | None
    samples: int
    stderr: float | None

    def __post_init__(self):
        if self.estimate is not None and not -1.0 <= self.estimate <= 1.0 + 1e-12:
            raise ValueError(f"estimate {self.estimate} outside [-1, 1]")


def estimate(record: TallyRecord, exact: float | None = None) -> OverlapEstimate:
    """2*t0/(t0+t1) - 1 with a 1/sqrt(m) error bound; never crashes on m=0."""
    m = record.samples
    if m == 0:
        return OverlapEstimate(record.pair, exact, None, 0, None)
    value = 2.0 * record.t0 / m - 1.0
    return OverlapEstimate(record.pair, exact, value, m, 1.0 / np.sqrt(m))


def _check_choice(kind: str, value, choices: tuple[str, ...]):
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}; expected one of {choices}")


def plan_for(
    ensemble: StateEnsemble, scheme: str = "new", final_variant: str = "standard"
) -> tuple[StateEnsemble, tuple[int, ...], CircuitIR, LayoutPlan]:
    """Pad the ensemble and build its circuit and layout plan."""
    _check_choice("scheme", scheme, SCHEMES)
    padded, pad_labels = pad_inputs(ensemble)
    build = build_un if scheme == "new" else san_mod.build_san_un
    circuit, plan = build(padded.n, padded.width, final_variant)
    return padded, pad_labels, circuit, plan


def tally(
    counts: CountsTable, plan: LayoutPlan, pad_labels: tuple[int, ...] = ()
) -> list[TallyRecord]:
    """Pool verdict counts per unordered real pair across outcomes and slots.

    Each distinct ancilla prefix is decoded once into the pair sitting in
    every slot; the slot's verdict then increments t0 or t1 of that pair. A
    standard-variant verdict is the slot's result bit; a destructive-variant
    verdict is the parity of the bitwise AND of the slot's two registers.
    Ordered duplicates such as (1,4) and (4,1) pool together: swap-test
    verdicts are symmetric in the two registers. Every pair of labels not in
    ``pad_labels`` gets a record, with zero samples if no shot reached it.
    """
    expected = plan.measured_labels()
    if counts.labels != expected:
        raise ValueError(
            f"counts layout {' '.join(counts.labels)} does not match the "
            f"expected {' '.join(expected)}"
        )
    d, w, n = plan.ancilla_count, plan.width, plan.n
    ancilla, data = counts.bits[:, :d], counts.bits[:, d:]
    # rows are sorted, so each ancilla prefix is one contiguous group
    starts = np.ones(len(ancilla), dtype=bool)
    starts[1:] = np.any(ancilla[1:] != ancilla[:-1], axis=1)
    group = np.cumsum(starts) - 1
    groups = int(starts.sum())
    labels = decode(plan, ancilla[starts])
    shots = np.bincount(group, weights=counts.counts, minlength=groups)
    sampled = np.zeros((n + 1) ** 2)
    failed = np.zeros((n + 1) ** 2)
    for s, (ra, rb) in enumerate(plan.slots):
        if plan.final_variant == "standard":
            verdict = data[:, s]
        else:
            reg_a = data[:, (ra - 1) * w : ra * w]
            reg_b = data[:, (rb - 1) * w : rb * w]
            verdict = np.bitwise_xor.reduce(reg_a & reg_b, axis=1)
        a, b = labels[ra - 1].astype(np.intp), labels[rb - 1].astype(np.intp)
        pair = np.minimum(a, b) * (n + 1) + np.maximum(a, b)
        np.add.at(sampled, pair, shots)
        fails = np.bincount(group, weights=counts.counts * verdict, minlength=groups)
        np.add.at(failed, pair, fails)
    pads = set(pad_labels)
    real = [x for x in range(1, n + 1) if x not in pads]
    pairs = list(itertools.combinations(real, 2))
    index = [i * (n + 1) + j for i, j in pairs]
    t1 = failed[index].astype(np.int64)
    t0 = sampled[index].astype(np.int64) - t1
    return [TallyRecord(*rec) for rec in zip(pairs, t0.tolist(), t1.tolist())]


def _overlap_lookup(ensemble: StateEnsemble) -> dict[tuple[int, int], float]:
    return {
        (i, j): ensemble.overlap(i, j)
        for i, j in itertools.combinations(range(1, ensemble.n + 1), 2)
    }


def _pair_success(ensemble: StateEnsemble, plan: LayoutPlan) -> np.ndarray:
    """P(verdict=0) = (1 + overlap)/2 for every label pair, 1-based, symmetric."""
    if ensemble.n != plan.n:
        raise ValueError("ensemble size does not match the plan (pad first)")
    p0 = np.ones((ensemble.n + 1, ensemble.n + 1))
    for (i, j), overlap in _overlap_lookup(ensemble).items():
        p0[i, j] = p0[j, i] = (1.0 + overlap) / 2.0
    return p0


def _slot_success(pair_p0: np.ndarray, plan: LayoutPlan, outcomes) -> np.ndarray:
    """P(verdict=0) per (ancilla outcome index, slot)."""
    labels = decode(plan, _index_bits(outcomes, plan.ancilla_count))
    first = labels[[a - 1 for a, _ in plan.slots]]
    second = labels[[b - 1 for _, b in plan.slots]]
    return pair_p0[first, second].T


def oracle_sample(
    ensemble: StateEnsemble, plan: LayoutPlan, shots: int, seed: int
) -> CountsTable:
    """Sample counts from the closed-form model: uniform ancilla outcome,
    then one Bernoulli verdict per slot. Scales to register counts far beyond
    the dense statevector cap; emits standard-variant verdict bits.

    Draws come in fixed chunks of ``_ORACLE_CHUNK`` shots, each taking its
    ancilla outcomes and then its verdict uniforms from the seed's stream.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    d = plan.ancilla_count
    pair_p0 = _pair_success(ensemble, plan)
    labels = replace(plan, final_variant="standard").measured_labels()
    rng = shot_rng(seed)
    chunks = []
    for start in range(0, shots, _ORACLE_CHUNK):
        m = min(_ORACLE_CHUNK, shots - start)
        anc = rng.integers(0, 1 << d, size=m)
        outcomes, which = np.unique(anc, return_inverse=True)
        p0 = _slot_success(pair_p0, plan, outcomes)[which]
        fails = rng.random((m, len(plan.slots))) >= p0
        rows = np.hstack([_index_bits(anc, d), fails.astype(np.uint8)])
        chunks.append(CountsTable(labels, plan.scheme, rows, np.ones(m, dtype=np.int64)))
    bits = np.concatenate([c.bits for c in chunks])
    return CountsTable(labels, plan.scheme, bits, np.concatenate([c.counts for c in chunks]))


def oracle_distribution(ensemble: StateEnsemble, plan: LayoutPlan) -> np.ndarray:
    """The oracle's analytic outcome distribution (small circuits only).

    Indexed like ``sim.measured_distribution`` over the standard-variant
    labels: ancilla bits, then one verdict bit per slot, first bit most
    significant.
    """
    d, n_slots = plan.ancilla_count, len(plan.slots)
    if d + n_slots > 24:
        raise ValueError("analytic distribution too large to enumerate")
    p0 = _slot_success(_pair_success(ensemble, plan), plan, np.arange(1 << d))
    probs = np.full((1 << d, 1), 1.0 / (1 << d))
    for c in range(n_slots):
        verdict = np.stack([p0[:, c], 1.0 - p0[:, c]], axis=1)
        probs = (probs[:, :, None] * verdict[:, None, :]).reshape(1 << d, -1)
    return probs.reshape(-1)


@dataclass(frozen=True)
class RunResult:
    """Everything a finished estimation run produced."""

    counts: CountsTable
    estimates: tuple[OverlapEstimate, ...]
    plan: LayoutPlan
    pad_labels: tuple[int, ...]
    engine: str


def estimate_all_overlaps(
    ensemble: StateEnsemble,
    scheme: str = "new",
    shots: int = 8192,
    seed: int = 0,
    final_variant: str = "standard",
    engine: str = "auto",
    *,
    max_qubits: int = MAX_QUBITS,
) -> RunResult:
    """One-call pipeline: sample counts, tally, and estimate every real pair.

    This is where a run's configuration is validated. ``engine="auto"`` uses
    the dense statevector whenever the circuit fits under the qubit cap and
    the permutation oracle otherwise. The oracle engine always emits
    standard-variant verdict bits, so its result carries the standard plan.
    """
    _check_choice("scheme", scheme, SCHEMES)
    _check_choice("final variant", final_variant, FINAL_VARIANTS)
    _check_choice("engine", engine, ENGINES)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    padded, pad_labels, circuit, plan = plan_for(ensemble, scheme, final_variant)
    if engine == "auto":
        engine = "statevector" if plan.total_qubits <= max_qubits else "oracle"
    if engine == "oracle":
        plan = replace(plan, final_variant="standard")
        counts = oracle_sample(padded, plan, shots, seed)
    elif plan.total_qubits > max_qubits:
        raise ValueError(
            f"{plan.total_qubits} qubits exceed the statevector cap of "
            f"{max_qubits}; re-run with engine='oracle'"
        )
    else:
        labels, probs = measured_distribution(
            circuit, input_factors(padded, plan), max_qubits=max_qubits
        )
        idx = sample_from_distribution(probs, shots, seed)
        values, cnts = np.unique(idx, return_counts=True)
        counts = CountsTable(labels, scheme, _index_bits(values, len(labels)), cnts)
    records = tally(counts, plan, pad_labels)
    overlaps = _overlap_lookup(padded)
    estimates = tuple(estimate(rec, overlaps[rec.pair]) for rec in records)
    return RunResult(counts, estimates, plan, pad_labels, engine)


def analytic_estimates(ensemble: StateEnsemble) -> tuple[OverlapEstimate, ...]:
    """Noise-free estimates from exact per-slot probabilities (no sampling).

    Both schemes test every pair, so these do not depend on the scheme.
    """
    out = []
    for pair, overlap in _overlap_lookup(ensemble).items():
        p0 = (1.0 + overlap) / 2.0
        out.append(OverlapEstimate(pair, overlap, 2.0 * p0 - 1.0, 0, None))
    return tuple(out)


@dataclass(frozen=True)
class ReplayReport:
    """Re-derived estimates for recorded counts, with discrepancy flags."""

    estimates: tuple[OverlapEstimate, ...]
    reference: dict[tuple[int, int], float]
    flags: dict[tuple[int, int], str]
    total_shots: int
    tolerance: float


def replay(
    counts: CountsTable,
    plan: LayoutPlan,
    ensemble: StateEnsemble,
    *,
    pad_labels: tuple[int, ...] = (),
    reference: dict[tuple[int, int], float] | None = None,
    tolerance: float = 0.05,
) -> ReplayReport:
    """Decode recorded counts into per-pair estimates and flag deviations.

    ``reference`` defaults to the ensemble's exact overlaps; a pair is
    flagged "deviates" when |estimate - reference| exceeds ``tolerance`` and
    "unsampled" when no shot reached it.
    """
    if not np.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    padded, auto_pads = pad_inputs(ensemble)
    pad_labels = pad_labels or auto_pads
    if padded.n != plan.n:
        raise ValueError(
            f"counts are for {plan.n} registers but states give {padded.n}"
        )
    records = tally(counts, plan, pad_labels)
    overlaps = _overlap_lookup(padded)
    ref = reference if reference is not None else overlaps
    estimates = []
    flags = {}
    for rec in records:
        est = estimate(rec, overlaps[rec.pair])
        estimates.append(est)
        if est.estimate is None:
            flags[rec.pair] = "unsampled"
        elif rec.pair in ref and abs(est.estimate - ref[rec.pair]) > tolerance:
            flags[rec.pair] = "deviates"
        else:
            flags[rec.pair] = "ok"
    return ReplayReport(tuple(estimates), dict(ref), flags, counts.total_shots, tolerance)
