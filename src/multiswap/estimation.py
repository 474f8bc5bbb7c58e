"""End-to-end overlap estimation: shot runs, tallying, decoding, replay.

Two engines produce shot counts. The statevector engine simulates the full
circuit exactly and samples the measured marginal. The permutation-oracle
engine exploits the network's structure: the ancilla marginal is exactly
uniform, and conditioned on an ancilla outcome each slot is an independent
swap test on a known pair, so counts can be drawn from closed-form
Bernoullis with no statevector. The two induced distributions are equal,
which the test suite checks to machine precision.

Shots stay integer and bit arrays throughout; bitstrings appear only in
``fileio``. A pair (i, j), i < j, has one index, ``builder.pair_rank``: its
0-based row among the n(n-1)/2 pairs in ``itertools.combinations`` order, the
order of ``estimates.csv``. A run's one ``builder.pair_table`` maps each
distinct ancilla outcome's slots to it; ``tally``'s verdict counts and
``StateEnsemble.overlaps`` are vectors of n(n-1)/2 entries in that order.
``_pair_rows`` alone turns the real pairs into rows: the vectors themselves
when no input was padded, and otherwise a gather at the real pairs' ranks.
``PairEstimates`` and ``ReplayReport`` hold their rows as vectors, one per
CSV column, the pair labels as the two columns ``pair_i`` and ``pair_j``.

The oracle sampler splits its shots into shards of ``_MIN_SHARD_ROWS`` or
more, one thread each, that count the verdicts they draw per pair; ``tally``
runs on the calling thread. Shard workers call only numpy and
``_draw_stream``: ``benchmarks/traced.py`` rebinds every public function to a
span recorder with a single span stack, which is not thread-safe.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import sim
from .builder import (
    FINAL_VARIANTS, LayoutPlan, assemble, check_final_variant, input_factors, layout_plan,
    pad_inputs, pair_rank, pair_table,
)
from .circuits import index_bits
from .sim import draw_stream, draw_thresholds, measured_distribution, sample_from_distribution
from .states import StateEnsemble
from .swaptest import destructive_decode

ENGINES = ("statevector", "oracle", "auto")

# the one function shard workers call, bound where no tracer rebinds it
_draw_stream = draw_stream

#: threads a run's rows are split across at most: the CPUs it may run on
_SHARDS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
#: rows every shard gets at least; fewer rows stay on one shard
_MIN_SHARD_ROWS = 1 << 15
#: Philox counter at which the verdict stream starts; the ancilla stream
#: starts at 0, and 4 raw words come from each counter value
_VERDICT_STREAM = 1 << 192
#: verdict words drawn (and thresholds gathered) at once
_VERDICT_BLOCK = 1 << 16


class DataError(ValueError):
    """Malformed input data: a file's contents, or counts that fit no layout."""


@dataclass(frozen=True)
class CountsTable:
    """Shot counts of distinct outcomes (ancilla bits, then result bits).

    ``bits`` is a (K, len(labels)) uint8 0/1 matrix, one outcome per row with
    its columns in label order; ``counts`` is the matching int64 vector.
    Construction merges duplicate rows by summing their counts and sorts the
    rows in ascending bitstring order, the first label being the most
    significant bit, so rows sharing an ancilla prefix are contiguous. Counts
    totalling more than 2**63 - 1 are a ``DataError``, so no int64 sum wraps.
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
        top = np.iinfo(np.int64).max  # every later sum of counts is at most the total
        if len(counts) * int(counts.max(initial=0)) > top and sum(counts.tolist()) > top:
            raise DataError(f"counts total more than {top} shots, past the int64 range")
        # each row as big-endian 64-bit words: comparing words compares bitstrings
        nbytes = -(-width // 64) * 8
        packed = np.zeros((len(bits), nbytes), dtype=np.uint8)
        packed[:, : -(-width // 8)] = np.packbits(bits, axis=1)
        words = packed.view(">u8").astype(np.uint64)
        if words.shape[1] == 1:
            order = np.argsort(words[:, 0])
        else:
            order = np.lexsort(words.T[::-1])
        words = words[order]
        starts = np.ones(len(words), dtype=bool)
        starts[1:] = (words[1:] != words[:-1]).any(axis=1)
        first = np.flatnonzero(starts)
        object.__setattr__(self, "bits", bits[order[first]])
        object.__setattr__(self, "counts", np.add.reduceat(counts[order], first))

    @property
    def total_shots(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PairEstimates:
    """Per-pair results as the ``estimates.csv`` columns, in its order: one
    vector entry per real unordered pair.

    ``pair_i`` and ``pair_j`` are the pairs' int64 1-based labels i < j in
    ``itertools.combinations`` order. ``exact``, ``estimate`` and ``stderr``
    are float vectors and ``samples`` an int64 vector; an unsampled pair has
    0 samples and NaN estimate and stderr.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    exact: np.ndarray
    estimate: np.ndarray
    samples: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        outside = (self.estimate < -1.0) | (self.estimate > 1.0 + 1e-12)
        if outside.any():
            raise ValueError(f"estimate {self.estimate[outside][0]} outside [-1, 1]")

    @classmethod
    def from_verdicts(cls, pair_i, pair_j, t0, t1, exact) -> "PairEstimates":
        """The labels' 2*t0/m - 1 with a 1/sqrt(m) error bound, m = t0 + t1,
        for every pair at once; NaN where m = 0."""
        t0 = np.asarray(t0, dtype=np.int64)
        m = t0 + np.asarray(t1, dtype=np.int64)
        per = np.where(m > 0, m, np.nan)  # NaN carries an unsampled pair through
        return cls(np.asarray(pair_i, dtype=np.int64), np.asarray(pair_j, dtype=np.int64),
                   np.asarray(exact, dtype=float), 2.0 * t0 / per - 1.0, m, 1.0 / np.sqrt(per))

    def __len__(self) -> int:
        return len(self.pair_i)

    def columns(self) -> dict[str, np.ndarray]:
        """The estimates table, in ``estimates.csv`` column order."""
        return {field.name: getattr(self, field.name) for field in fields(self)}


def layout_for(
    ensemble: StateEnsemble, scheme: str = "new", final_variant: str = "standard"
) -> tuple[StateEnsemble, LayoutPlan]:
    """The padded ensemble (``builder.pad_inputs``) and its layout plan
    (``builder.layout_plan``)."""
    padded = pad_inputs(ensemble)
    return padded, layout_plan(scheme, padded.n, padded.width, final_variant)


@dataclass(frozen=True)
class Run:
    """A run as ``decide`` admitted it: the real input count, the padded
    ensemble, its plan, the engine ("statevector" or "oracle"), shots, seed."""

    real: int
    ensemble: StateEnsemble
    plan: LayoutPlan
    engine: str
    shots: int
    seed: int


def _in_shards(rows: int, work) -> list:
    """``work(lo, hi)`` on contiguous shards of ``rows`` rows, each but the
    first on a thread of its own; the results in shard order.

    A run gets at most ``_SHARDS`` shards of at least ``_MIN_SHARD_ROWS``
    rows each, so small runs start no thread.
    """
    shards = max(1, min(_SHARDS, rows // _MIN_SHARD_ROWS))
    bounds = [rows * i // shards for i in range(shards + 1)]
    results = [None] * shards
    errors = []

    def run(i):
        try:
            results[i] = work(bounds[i], bounds[i + 1])
        except BaseException as exc:  # re-raised once every shard is done
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, shards)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def tally(counts: CountsTable, plan: LayoutPlan) -> tuple[np.ndarray, np.ndarray]:
    """Pool verdict counts per unordered label pair across outcomes and slots.

    The counts' distinct ancilla prefixes are decoded once
    (``builder.pair_table``). A slot's verdict (its result bit, or
    ``swaptest.destructive_decode`` of its two registers in the destructive
    variant) increments t0 or t1 of the pair the table puts there; the plan
    must end in one of ``FINAL_VARIANTS``.

    Returns ``(t0, t1)``: int64 vectors of n(n-1)/2 verdict-0 and verdict-1
    counts whose entry ``builder.pair_rank(n, i, j)`` is pair (i, j), i < j.
    """
    check_final_variant(plan.final_variant)
    expected = plan.measured_labels()
    if counts.labels != expected:
        raise ValueError(
            f"counts layout {' '.join(counts.labels)} does not match the "
            f"expected {' '.join(expected)}"
        )
    d, w, n = plan.ancilla_count, plan.width, plan.n
    ancilla = counts.bits[:, :d]
    # rows are sorted, so each ancilla prefix is one contiguous group
    starts = np.ones(len(ancilla), dtype=bool)
    starts[1:] = np.any(ancilla[1:] != ancilla[:-1], axis=1)
    group = np.cumsum(starts) - 1
    heads = np.flatnonzero(starts)
    pairs = pair_table(plan, ancilla[heads])
    shots = np.add.reduceat(counts.counts, heads)
    if plan.final_variant == "standard":
        verdicts = counts.bits[:, d:]
    else:  # each slot's data columns, found through the measured layout
        column = {q: c for c, (q, _) in enumerate(plan.measured)}
        registers = [
            [column[q] for r in slot for q in plan.register_qubits(r)] for slot in plan.slots
        ]
        verdicts = destructive_decode(counts.bits[:, registers].reshape(-1, 2 * w), w)
        verdicts = verdicts.reshape(len(ancilla), len(plan.slots))
    failing = np.empty((len(plan.slots), len(verdicts)), dtype=bool)  # one row per slot
    step = max(1, _VERDICT_BLOCK // len(plan.slots))
    for b in range(0, len(verdicts), step):  # in blocks: a whole transpose thrashes the cache
        failing[:, b : b + step] = verdicts[b : b + step].T
    sampled, failed = np.zeros((2, n * (n - 1) // 2), dtype=np.int64)
    for s in range(pairs.shape[1]):
        pair = pairs[:, s].astype(np.intp)
        np.add.at(sampled, pair, shots)
        rows = np.flatnonzero(failing[s])
        np.add.at(failed, pair[group[rows]], counts.counts[rows])
    sampled -= failed
    return sampled, failed


def _oracle_rows(rows, anc, outcomes, bits, pairs, thresholds, seed, lo, hi) -> np.ndarray:
    """Fill rows lo..hi: shot i's outcome bits, and verdicts against its pairs'
    thresholds; return the verdict-0 then verdict-1 counts per pair rank."""
    d, n_slots = bits.shape[1], pairs.shape[1]
    totals = np.zeros(2 * len(thresholds), dtype=np.int64)
    verdicts = _draw_stream(seed, lo * n_slots, _VERDICT_STREAM)
    step = max(1, _VERDICT_BLOCK // n_slots)
    for b in range(lo, hi, step):
        block = rows[b : min(hi, b + step)]
        which = np.searchsorted(outcomes, anc[b : b + len(block)])
        block[:, :d] = np.take(bits, which, axis=0)
        address = pairs[which].astype(np.intp)
        words = verdicts.random_raw((len(block), n_slots))
        words >>= np.uint64(11)
        failing = block[:, d:].view(bool)
        np.greater_equal(words, thresholds[address], out=failing)
        address += failing * len(thresholds)  # a failed verdict counts in the second half
        np.add.at(totals, address, 1)  # intp addresses and the value 1: numpy's fast path
    return totals


def oracle_sample(run: Run) -> tuple[CountsTable, tuple[np.ndarray, np.ndarray]]:
    """Sample counts from the closed-form model: uniform ancilla outcome,
    then one Bernoulli verdict per slot. Scales to register counts far beyond
    the dense statevector cap. It draws standard-variant verdict bits only,
    so it takes a run ``decide`` gave the oracle engine.

    Draws follow ``sim.draw_thresholds``: shot i's ancilla outcome is the
    top d bits of word i of the stream at counter 0, and its verdict in slot
    s is 1 exactly when word i*S + s of the stream at counter 2**192 (S
    slots) reaches p0 = (1 + overlap)/2 for the slot's pair, the overlap read
    at the pair's rank in ``StateEnsemble.overlaps``. Each shard opens
    the verdict stream at its own first word, so the rows do not depend on
    how shots split into shards or blocks. The shards also count their
    verdicts per pair rank: their sum, each shard's accumulator added into
    the first and dropped, is ``tally``'s ``(t0, t1)``, returned with the
    counts.
    """
    plan, shots, d = run.plan, run.shots, run.plan.ancilla_count
    anc = _draw_stream(run.seed).random_raw(shots) >> np.uint64(64 - d)
    outcomes = np.sort(anc)
    outcomes = outcomes[np.r_[True, outcomes[1:] != outcomes[:-1]]]
    bits = index_bits(outcomes, d)
    pairs = pair_table(plan, bits)
    rows = np.empty((shots, len(plan.measured)), dtype=np.uint8)
    thresholds = draw_thresholds((run.ensemble.overlaps + 1.0) / 2.0)
    totals = _in_shards(shots, partial(
        _oracle_rows, rows, anc, outcomes, bits, pairs, thresholds, run.seed))
    del anc, pairs, thresholds  # the partial was never named: these go before the merge
    while len(totals) > 1:
        totals[0] += totals.pop()
    t = tuple(totals.pop().reshape(2, -1))
    return CountsTable(plan.measured_labels(), plan.scheme, rows, np.broadcast_to(1, shots)), t


def oracle_distribution(ensemble: StateEnsemble, plan: LayoutPlan) -> np.ndarray:
    """The oracle's analytic outcome distribution (small circuits only).

    Indexed like ``sim.measured_distribution`` over the standard-variant
    labels: ancilla bits, then one verdict bit per slot, first bit most
    significant.
    """
    d, n_slots = plan.ancilla_count, len(plan.slots)
    if d + n_slots > 24:
        raise ValueError("analytic distribution too large to enumerate")
    if ensemble.n != plan.n:
        raise ValueError("ensemble size does not match the plan (pad first)")
    p0 = (ensemble.overlaps[pair_table(plan, index_bits(np.arange(1 << d), d))] + 1.0) / 2.0
    probs = np.full((1 << d, 1), 1.0 / (1 << d))
    for c in range(n_slots):
        verdict = np.stack([p0[:, c], 1.0 - p0[:, c]], axis=1)
        probs = (probs[:, :, None] * verdict[:, None, :]).reshape(1 << d, -1)
    return probs.reshape(-1)


def decide(
    ensemble: StateEnsemble,
    scheme: str = "new",
    shots: int = 8192,
    seed: int = 0,
    final_variant: str = "standard",
    engine: str = "auto",
) -> Run:
    """The one place a run is checked, planned and given its engine: no draw, no gate.

    It checks engine, final variant (``builder.check_final_variant``), shots
    and seed; ``builder.layout_plan`` checks the scheme. ``engine="auto"``
    uses the dense statevector whenever the circuit fits under the qubit cap
    ``sim.MAX_QUBITS`` (which ``sim.check_size`` enforces), and otherwise
    the oracle, whose verdicts are standard-variant ones: any other variant
    is refused unless the statevector can run it, whatever the engine asked.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    check_final_variant(final_variant)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must satisfy 0 <= seed < 2**64, got {seed}")
    padded, plan = layout_for(ensemble, scheme, final_variant)
    dense = plan.total_qubits <= sim.MAX_QUBITS
    if engine == "auto":
        engine = "statevector" if dense else "oracle"
    if final_variant != "standard" and (engine == "oracle" or not dense):
        raise ValueError(
            "the oracle draws standard-variant verdicts only, and the plan ends in "
            f"{final_variant!r}: run the standard variant, or the statevector "
            f"engine within its {sim.MAX_QUBITS}-qubit cap"
        )
    if engine == "statevector":
        sim.check_size(plan.total_qubits)
    return Run(ensemble.n, padded, plan, engine, shots, seed)


@dataclass(frozen=True)
class RunResult:
    """Everything a finished estimation run produced."""

    run: Run
    counts: CountsTable
    estimates: PairEstimates


def estimate_all_overlaps(run: Run) -> RunResult:
    """Execute a decided run: sample counts, tally, and estimate every real pair."""
    plan, padded = run.plan, run.ensemble
    if run.engine == "oracle":
        counts, (t0, t1) = oracle_sample(run)
    else:
        labels, probs = measured_distribution(assemble(plan), input_factors(padded, plan))
        idx = sample_from_distribution(probs, run.shots, run.seed)
        values, cnts = np.unique(idx, return_counts=True)
        counts = CountsTable(labels, plan.scheme, index_bits(values, len(labels)), cnts)
        t0, t1 = tally(counts, plan)
    return RunResult(run, counts, _pair_rows(run.real, padded, t0, t1))


def _pair_rows(real: int, padded: StateEnsemble, t0: np.ndarray, t1: np.ndarray) -> PairEstimates:
    """The one place pairs become rows: the estimates of the real 1-based pairs
    i < j in ``itertools.combinations`` order, from ``tally``'s vectors
    ``(t0, t1)`` and ``padded.overlaps`` (n >= ``real`` labels). With no
    padding (``real == n``) the rows are those vectors themselves, read
    through ``slice(None)``; otherwise each is gathered at the real pairs'
    ``builder.pair_rank`` over all n labels. The label columns are
    ``np.triu_indices`` made 1-based in place."""
    i, j = np.triu_indices(real, k=1)
    i += 1
    j += 1
    rows = slice(None) if real == padded.n else pair_rank(padded.n, i, j)
    return PairEstimates.from_verdicts(i, j, t0[rows], t1[rows], padded.overlaps[rows])


@dataclass(frozen=True)
class ReplayReport:
    """Re-derived estimates for recorded counts, with discrepancy flags.

    ``reference``, ``abs_diff`` (|estimate - reference|) and ``flags`` are
    vectors aligned with the rows of ``estimates``; ``reference`` is NaN for
    a pair the reference lacks.
    """

    estimates: PairEstimates
    reference: np.ndarray
    abs_diff: np.ndarray
    flags: np.ndarray
    total_shots: int
    tolerance: float

    def columns(self) -> dict[str, np.ndarray]:
        """The replay table, in ``replay.csv`` column order."""
        return {**self.estimates.columns(), "reference": self.reference,
                "abs_diff": self.abs_diff, "flag": self.flags}


def _reference_rows(reference: dict[tuple[int, int], float], n: int) -> np.ndarray:
    """Reference values as a vector of the n(n-1)/2 pairs of labels 1..n in row
    order, each at the ``builder.pair_rank`` of its key sorted to i < j; NaN
    where a pair is absent.

    A key (i, j) names the unordered pair, so (2, 1) stands for (1, 2); a
    pair keyed both ways round is an error. A key with a label outside 1..n,
    or a self-pair (i, i), is dropped while it is Python ints.
    """
    reference = {key: value for key, value in reference.items() if 1 <= min(key) < max(key) <= n}
    keys = np.sort(np.array(list(reference), dtype=np.int64).reshape(-1, 2), axis=1)
    rank = pair_rank(n, keys[:, 0], keys[:, 1])
    if (np.diff(np.sort(rank)) == 0).any():
        raise ValueError("reference lists a pair in both orders")
    rows = np.full(n * (n - 1) // 2, np.nan)
    rows[rank] = np.fromiter(reference.values(), dtype=float, count=len(reference))
    return rows


def replay(
    counts: CountsTable,
    ensemble: StateEnsemble,
    *,
    reference: dict[tuple[int, int], float] | None = None,
    tolerance: float = 0.05,
) -> ReplayReport:
    """Decode recorded counts into per-pair estimates and flag deviations.

    The layout is the counts' scheme ("new" if they name none) on the
    padded ensemble, ending in the final variant whose labels the counts
    carry; labels that fit neither variant are a ``DataError``.
    ``reference`` defaults to the ensemble's exact overlaps; a pair is
    flagged "deviates" when |estimate - reference| exceeds ``tolerance`` and
    "unsampled" when no shot reached it. With no ``reference`` the report's
    reference column is the estimates' ``exact`` column itself, which with no
    padding is the ensemble's ``overlaps`` vector.
    """
    if not np.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    padded = pad_inputs(ensemble)
    plans = [layout_plan(counts.scheme or "new", padded.n, padded.width, variant)
             for variant in FINAL_VARIANTS]
    layouts = [plan.measured_labels() for plan in plans]
    if counts.labels not in layouts:
        raise DataError(
            "counts layout does not match the states: expected "
            f"{' '.join(layouts[0])} (or the destructive form), found "
            f"{' '.join(counts.labels)}"
        )
    plan = plans[layouts.index(counts.labels)]
    estimates = _pair_rows(ensemble.n, padded, *tally(counts, plan))
    ref = estimates.exact if reference is None else _reference_rows(reference, ensemble.n)
    abs_diff = np.abs(estimates.estimate - ref)
    flags = np.full(len(ref), "ok", dtype="<U9")  # in place: "unsampled" overrides
    flags[abs_diff > tolerance] = "deviates"
    flags[estimates.samples == 0] = "unsampled"
    return ReplayReport(estimates, ref, abs_diff, flags, counts.total_shots, tolerance)
