"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import time
from importlib import resources

import numpy as np
import pytest

from multiswap.analytics import precision
from multiswap.builder import assemble, decode_all, input_factors, layout_plan
from multiswap.circuits import count_resources, index_bits
from multiswap.cli import main
from multiswap.estimation import (
    PairEstimates,
    estimate_all_overlaps,
    layout_for,
    oracle_distribution,
    replay,
)
from multiswap.fixtures import load_ensemble, reference_counts, reference_estimates
from multiswap.sim import measured_distribution, project_qubits, run_statevector
from multiswap.states import exact_overlap, tensor_product
from multiswap.swaptest import VARIANTS, verdict_probability

from conftest import (
    outcome_count,
    random_ensemble,
    random_state,
    real_pair_coverage,
    reference_labels,
    slot_pairs,
)


def _ok(name: str, detail: str = ""):
    print(f"\nACCEPTANCE {name}: PASS {detail}")


def test_c01_exact_overlaps_match_recorded_table(d0):
    start = time.perf_counter()
    # the published ``exact`` column of the recorded run's estimates table
    table = resources.files("multiswap.data").joinpath("reference_estimates.csv")
    with table.open(newline="") as fh:
        reference = {
            (int(row["pair_i"]), int(row["pair_j"])): float(row["exact"])
            for row in csv.DictReader(fh)
        }
    assert len(reference) == 28
    worst = 0.0
    for (i, j), expected in reference.items():
        value = d0.overlaps[i - 1, j - 1]
        worst = max(worst, abs(value - expected))
        assert value == pytest.approx(expected, abs=5e-4), (i, j)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok("C1", f"(28 overlaps within 5e-4, worst {worst:.1e}, {elapsed:.2f}s)")


def test_c02_worked_estimate_and_erratum_annotation():
    est = PairEstimates.from_verdicts([(6, 7)], [601], [403], [np.nan]).estimate[0]
    assert est == pytest.approx(0.1972, abs=1e-4)
    assert est == pytest.approx(reference_estimates()[(6, 7)], abs=1e-4)
    fixture = resources.files("multiswap.data").joinpath("reference_counts.txt").read_text()
    assert "0.4441" in fixture and "0.1972" in fixture  # erratum annotated inline
    _ok("C2", "(2*601/1004 - 1 = 0.1972; 0.4441 erratum annotated in fixture)")


def test_c03_statistical_reproduction_all_ensembles(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "run0"
    assert main(
        ["estimate", "bundled", "--shots", "8192", "--seed", "7",
         "--out-dir", str(out)]
    ) == 0
    with open(out / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 28
    hits = sum(
        1
        for row in rows
        if abs(float(row["estimate"]) - float(row["exact"]))
        <= 3.0 / np.sqrt(int(row["samples"]))
    )
    assert hits / len(rows) >= 0.95
    fractions = [hits / 28]
    for idx in range(1, 10):
        result = estimate_all_overlaps(load_ensemble(idx), shots=8192, seed=7)
        est = result.estimates
        assert len(est) == 28
        good = int(np.sum(np.abs(est.estimate - est.exact) <= 3.0 * est.stderr))
        assert good / 28 >= 0.95, f"ensemble d{idx}"
        fractions.append(good / 28)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok("C3", f"(10 ensembles, in-band fractions {min(fractions):.2f}..1.00, {elapsed:.1f}s)")


def test_c04_resource_counts_match_closed_forms():
    start = time.perf_counter()
    for n in (4, 8, 16, 32):
        k = n.bit_length() - 1
        new = count_resources(assemble(layout_plan("new", n)))
        assert new.cswap_count == (k - 1) * 2 ** (k - 1)
        assert new.ancilla_count == 2 * (k - 1)
        san = count_resources(assemble(layout_plan("san", n)))
        assert san.cswap_count == 3 * (2 ** (k - 1) - 1)
        assert san.ancilla_count == 3 * (k - 1)
    new8 = count_resources(assemble(layout_plan("new", 8)))
    san8 = count_resources(assemble(layout_plan("san", 8)))
    assert (new8.cswap_count, new8.ancilla_count) == (8, 4)
    assert (san8.cswap_count, san8.ancilla_count) == (9, 6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _ok("C4", f"(n in 4..32 closed forms; anchors 8/4 and 9/6; {elapsed:.2f}s)")


def test_c05_decoder_correctness_against_statevector():
    rng = np.random.default_rng(2025)
    for n in (4, 8):
        plan = layout_plan("new", n)
        circuit = assemble(plan)
        d = plan.ancilla_count
        outcomes = index_bits(np.arange(1 << d), d)
        rows = decode_all(plan).T.tolist()
        for _ in range(20):
            ensemble = random_ensemble(rng, n)
            out = run_statevector(circuit, input_factors(ensemble, plan))
            for outcome, row in zip(outcomes, rows):
                _, conditioned = project_qubits(out, range(d), outcome)
                expected = tensor_product([ensemble.state(i) for i in row])
                assert exact_overlap(conditioned, expected) >= 1 - 1e-10
    plan4 = layout_plan("new", 4)
    slot_multiset = {
        frozenset(map(frozenset, slots))
        for slots in slot_pairs(plan4, decode_all(plan4)).tolist()
    }
    ref_multiset = {
        frozenset(frozenset(p) for p in row.reshape(-1, 2).tolist())
        for row in reference_labels("new_n4").T
    }
    assert slot_multiset == ref_multiset
    _ok("C5", "(20 random ensembles x all outcomes, fidelity >= 1 - 1e-10)")


def test_c06_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    for n in (4, 8):
        ensemble = random_ensemble(rng, n)
        padded, plan = layout_for(ensemble, "new", "standard")
        circuit = assemble(plan)
        _, full = measured_distribution(circuit, tensor_product(input_factors(padded, plan)))
        model = oracle_distribution(padded, plan)
        tv = 0.5 * np.abs(full - model).sum()
        assert tv <= 1e-9, n
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _ok("C6", f"(total variation <= 1e-9 for n=4,8; {elapsed:.2f}s)")


def test_c07_pair_coverage_all_sizes():
    # the run path does not re-check coverage, so pin it up to the sizes the
    # oracle engine is used at, over every ancilla outcome via the decoder
    sizes = (("new", (4, 8, 16, 32, 64, 128, 256)), ("san", (4, 8, 16, 32, 64)))
    for scheme, ns in sizes:
        for n in ns:
            plan = layout_plan(scheme, n)
            _, coverage = real_pair_coverage(plan)
            assert len(coverage) == n * (n - 1) // 2, n
            assert (coverage > 0).all(), n
            # every (outcome, slot) entry tests a pair of distinct registers
            assert coverage.sum() == len(plan.slots) << plan.ancilla_count, n
    _ok("C7", "(zero uncovered pairs, new n<=256 and baseline n<=64)")


def test_c08_precision_law(d0):
    shots = 100000
    new = estimate_all_overlaps(d0, "new", shots=shots, seed=55)
    san = estimate_all_overlaps(d0, "san", shots=shots, seed=55)
    avg_new = new.estimates.samples.sum() / 28
    avg_san = san.estimates.samples.sum() / 28
    ratio = avg_new / avg_san
    assert ratio == pytest.approx(4.0, rel=0.05)
    for n in range(2, 65):
        model = precision(n, shots)
        assert model.ratio == model.n / 2.0
    _ok("C8", f"(empirical ratio {ratio:.3f} at N=1e5; model ratio n/2 exact)")


def test_c09_recorded_counts_replay(d0):
    counts = reference_counts()
    assert outcome_count(counts, "11111010") == 48  # duplicate rows merged
    report = replay(counts, d0, reference=reference_estimates(), tolerance=1e-3)
    pairs = report.estimates.pairs.tolist()
    assert len(pairs) == 28
    assert (report.estimates.samples > 0).all()
    assert set(report.flags.tolist()) <= {"ok", "deviates"}
    deviating = report.estimates.pairs[report.flags == "deviates"].tolist()
    # three published estimate values cannot be reproduced from the published
    # counts; surfacing them as flags is the required deliverable
    assert deviating == [[1, 8], [2, 7], [3, 6]]
    assert report.flags[pairs.index([6, 7])] == "ok"
    _ok("C9", "(28 pairs tallied, duplicate merged to 48, 3 deviations flagged)")


def test_c10_variant_equivalence():
    rng = np.random.default_rng(909)
    for width in (1, 2, 3):
        for _ in range(100):
            a, b = random_state(rng, width), random_state(rng, width)
            probs = [verdict_probability(v, a, b) for v in VARIANTS]
            assert max(probs) - min(probs) <= 1e-10
    _ok("C10", "(4 variants agree to 1e-10 on 100 pairs per width 1..3)")
