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

from dataclasses import dataclass, replace

import numpy as np

from . import san as san_mod
from .builder import FINAL_VARIANTS, LayoutPlan, build_un, decode, input_factors, pad_inputs
from .circuits import CircuitIR, index_bits
from .sim import MAX_QUBITS, measured_distribution, sample_from_distribution, shot_rng
from .states import StateEnsemble
from .swaptest import destructive_decode

SCHEMES = ("new", "san")
ENGINES = ("statevector", "oracle", "auto")

_ORACLE_CHUNK = 1 << 15
# verdict uniforms drawn (and success probabilities gathered) at once
_VERDICT_BLOCK = 1 << 18


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
        merged = np.add.reduceat(counts[order], first)
        rows = packed[order[first]]
        object.__setattr__(self, "bits", np.unpackbits(rows, axis=1, count=width))
        object.__setattr__(self, "counts", merged)

    @property
    def total_shots(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class PairEstimates:
    """Per-pair results as columns, one row per real unordered pair.

    ``pairs`` is a (P, 2) array of 1-based labels i < j in
    ``itertools.combinations`` order. ``exact``, ``estimate`` and ``stderr``
    are float vectors and ``samples`` an int64 vector; an unsampled pair has
    0 samples and NaN estimate and stderr.
    """

    pairs: np.ndarray
    exact: np.ndarray
    samples: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray

    def __post_init__(self):
        outside = (self.estimate < -1.0) | (self.estimate > 1.0 + 1e-12)
        if outside.any():
            raise ValueError(f"estimate {self.estimate[outside][0]} outside [-1, 1]")

    @classmethod
    def from_verdicts(cls, pairs, t0, t1, exact) -> "PairEstimates":
        """2*t0/m - 1 with a 1/sqrt(m) error bound, m = t0 + t1, for every
        pair at once; NaN where m = 0."""
        t0 = np.asarray(t0, dtype=np.int64)
        m = t0 + np.asarray(t1, dtype=np.int64)
        sampled = m > 0
        value = np.full(len(m), np.nan)
        value[sampled] = 2.0 * t0[sampled] / m[sampled] - 1.0
        stderr = np.full(len(m), np.nan)
        stderr[sampled] = 1.0 / np.sqrt(m[sampled])
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return cls(pairs, np.asarray(exact, dtype=float), m, value, stderr)

    def __len__(self) -> int:
        return len(self.pairs)

    def columns(self) -> dict[str, np.ndarray]:
        """The estimates table, in ``estimates.csv`` column order."""
        return {
            "pair_i": self.pairs[:, 0],
            "pair_j": self.pairs[:, 1],
            "exact": self.exact,
            "estimate": self.estimate,
            "samples": self.samples,
            "stderr": self.stderr,
        }


def _check_choice(kind: str, value, choices: tuple[str, ...]):
    if value not in choices:
        raise ValueError(f"unknown {kind} {value!r}; expected one of {choices}")


def build_circuit(
    scheme: str, n: int, width: int = 1, final_variant: str = "standard"
) -> tuple[CircuitIR, LayoutPlan]:
    """The full circuit and layout plan of ``scheme`` on n registers."""
    _check_choice("scheme", scheme, SCHEMES)
    build = build_un if scheme == "new" else san_mod.build_san_un
    return build(n, width, final_variant)


def plan_for(
    ensemble: StateEnsemble, scheme: str = "new", final_variant: str = "standard"
) -> tuple[StateEnsemble, tuple[int, ...], CircuitIR, LayoutPlan]:
    """Pad the ensemble and build its circuit and layout plan."""
    padded, pad_labels = pad_inputs(ensemble)
    circuit, plan = build_circuit(scheme, padded.n, padded.width, final_variant)
    return padded, pad_labels, circuit, plan


def tally(
    counts: CountsTable, plan: LayoutPlan, pad_labels: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool verdict counts per unordered real pair across outcomes and slots.

    Each distinct ancilla prefix is decoded once into the pair sitting in
    every slot; the slot's verdict then increments t0 or t1 of that pair. A
    standard-variant verdict is the slot's result bit; a destructive-variant
    verdict is ``swaptest.destructive_decode`` of the slot's two registers.
    Ordered duplicates such as (1,4) and (4,1) pool together: swap-test
    verdicts are symmetric in the two registers. Every pair of labels not in
    ``pad_labels`` gets a row, with zero counts if no shot reached it.

    Returns ``(pairs, t0, t1)``: the (P, 2) 1-based pairs i < j in
    ``itertools.combinations`` order and their int64 verdict-0 and
    verdict-1 counts.
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
    heads = np.flatnonzero(starts)
    labels = decode(plan, ancilla[heads])
    shots = np.add.reduceat(counts.counts, heads)
    if plan.final_variant == "standard":
        verdicts = data
    else:
        registers = [[(r - 1) * w + k for r in slot for k in range(w)] for slot in plan.slots]
        verdicts = destructive_decode(data[:, registers].reshape(-1, 2 * w), w)
        verdicts = verdicts.reshape(len(data), len(plan.slots))
    failing = np.ascontiguousarray(verdicts.T)  # one row of verdicts per slot
    # totals per ordered label pair (a, b) at index a * (n + 1) + b
    sampled = np.zeros((n + 1) ** 2, dtype=np.int64)
    failed = np.zeros((n + 1) ** 2, dtype=np.int64)
    for s, (ra, rb) in enumerate(plan.slots):
        pair = labels[ra - 1].astype(np.intp)
        pair *= n + 1
        pair += labels[rb - 1]
        np.add.at(sampled, pair, shots)
        rows = np.flatnonzero(failing[s])
        np.add.at(failed, pair[group[rows]], counts.counts[rows])
    # a pair counts in either order
    sampled = sampled.reshape(n + 1, n + 1) + sampled.reshape(n + 1, n + 1).T
    failed = failed.reshape(n + 1, n + 1) + failed.reshape(n + 1, n + 1).T
    real = np.setdiff1d(np.arange(1, n + 1), pad_labels)
    first, second = np.triu_indices(len(real), k=1)
    pairs = np.stack([real[first], real[second]], axis=1)
    t1 = failed[pairs[:, 0], pairs[:, 1]]
    t0 = sampled[pairs[:, 0], pairs[:, 1]] - t1
    return pairs, t0, t1


def _slot_success(ensemble: StateEnsemble, plan: LayoutPlan, outcomes) -> np.ndarray:
    """P(verdict=0) = (1 + overlap)/2 per (ancilla outcome index, slot)."""
    if ensemble.n != plan.n:
        raise ValueError("ensemble size does not match the plan (pad first)")
    labels = decode(plan, index_bits(outcomes, plan.ancilla_count))
    first = labels[[a - 1 for a, _ in plan.slots]]
    second = labels[[b - 1 for _, b in plan.slots]]
    p0 = ensemble.overlaps[first - 1, second - 1].T
    p0 += 1.0
    p0 /= 2.0
    return p0


def oracle_sample(
    ensemble: StateEnsemble, plan: LayoutPlan, shots: int, seed: int
) -> CountsTable:
    """Sample counts from the closed-form model: uniform ancilla outcome,
    then one Bernoulli verdict per slot. Scales to register counts far beyond
    the dense statevector cap; emits standard-variant verdict bits.

    Draws come in fixed chunks of ``_ORACLE_CHUNK`` shots, each taking its
    ancilla outcomes and then its verdict uniforms from the seed's stream.
    The uniforms are drawn and compared in row blocks of at most
    ``_VERDICT_BLOCK`` values, in the order one draw would give them.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    d = plan.ancilla_count
    labels = replace(plan, final_variant="standard").measured_labels()
    rng = shot_rng(seed)
    rows = np.empty((shots, len(labels)), dtype=np.uint8)
    step = max(1, _VERDICT_BLOCK // len(plan.slots))
    for start in range(0, shots, _ORACLE_CHUNK):
        chunk = rows[start : start + _ORACLE_CHUNK]
        anc = rng.integers(0, 1 << d, size=len(chunk))
        outcomes, which = np.unique(anc, return_inverse=True)
        p0 = _slot_success(ensemble, plan, outcomes)
        chunk[:, :d] = index_bits(anc, d)
        for lo in range(0, len(chunk), step):
            block = p0[which[lo : lo + step]]
            chunk[lo : lo + step, d:] = rng.random(block.shape) >= block
    return CountsTable(labels, plan.scheme, rows, np.ones(shots, dtype=np.int64))


def oracle_distribution(ensemble: StateEnsemble, plan: LayoutPlan) -> np.ndarray:
    """The oracle's analytic outcome distribution (small circuits only).

    Indexed like ``sim.measured_distribution`` over the standard-variant
    labels: ancilla bits, then one verdict bit per slot, first bit most
    significant.
    """
    d, n_slots = plan.ancilla_count, len(plan.slots)
    if d + n_slots > 24:
        raise ValueError("analytic distribution too large to enumerate")
    p0 = _slot_success(ensemble, plan, np.arange(1 << d))
    probs = np.full((1 << d, 1), 1.0 / (1 << d))
    for c in range(n_slots):
        verdict = np.stack([p0[:, c], 1.0 - p0[:, c]], axis=1)
        probs = (probs[:, :, None] * verdict[:, None, :]).reshape(1 << d, -1)
    return probs.reshape(-1)


@dataclass(frozen=True)
class RunResult:
    """Everything a finished estimation run produced."""

    counts: CountsTable
    estimates: PairEstimates
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
        counts = CountsTable(labels, scheme, index_bits(values, len(labels)), cnts)
    estimates = _estimate_pairs(counts, plan, padded, pad_labels)
    return RunResult(counts, estimates, plan, pad_labels, engine)


def _estimate_pairs(
    counts: CountsTable, plan: LayoutPlan, padded: StateEnsemble, pad_labels
) -> PairEstimates:
    pairs, t0, t1 = tally(counts, plan, pad_labels)
    exact = padded.overlaps[pairs[:, 0] - 1, pairs[:, 1] - 1]
    return PairEstimates.from_verdicts(pairs, t0, t1, exact)


@dataclass(frozen=True)
class ReplayReport:
    """Re-derived estimates for recorded counts, with discrepancy flags.

    ``reference`` and ``flags`` are aligned with ``estimates.pairs``;
    ``reference`` is NaN for a pair the reference lacks.
    """

    estimates: PairEstimates
    reference: np.ndarray
    flags: np.ndarray
    total_shots: int
    tolerance: float

    def columns(self) -> dict[str, np.ndarray]:
        """The replay table, in ``replay.csv`` column order."""
        return {
            **self.estimates.columns(),
            "reference": self.reference,
            "abs_diff": np.abs(self.estimates.estimate - self.reference),
            "flag": self.flags,
        }


def _aligned(reference: dict[tuple[int, int], float], pairs: np.ndarray) -> np.ndarray:
    """Reference values at each row of ``pairs``; NaN where a pair is absent.

    A key (i, j) names the unordered pair, so (2, 1) stands for (1, 2); a
    pair keyed both ways round is an error.
    """
    n = int(pairs.max())
    table = np.full((n + 1, n + 1), np.nan)
    keys = np.sort(np.array(list(reference), dtype=np.int64).reshape(-1, 2), axis=1)
    if len(np.unique(keys, axis=0)) < len(keys):
        raise ValueError("reference lists a pair in both orders")
    values = np.fromiter(reference.values(), dtype=float, count=len(reference))
    known = ((keys >= 1) & (keys <= n)).all(axis=1)
    table[keys[known, 0], keys[known, 1]] = values[known]
    return table[pairs[:, 0], pairs[:, 1]]


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
    estimates = _estimate_pairs(counts, plan, padded, pad_labels)
    ref = estimates.exact if reference is None else _aligned(reference, estimates.pairs)
    deviates = np.abs(estimates.estimate - ref) > tolerance
    flags = np.where(
        estimates.samples == 0, "unsampled", np.where(deviates, "deviates", "ok")
    )
    return ReplayReport(estimates, ref, flags, counts.total_shots, tolerance)
