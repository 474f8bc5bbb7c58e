import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiswap import states as states_module
from multiswap.fileio import parse_states
from multiswap.states import (
    PureState,
    StateEnsemble,
    basis_state,
    exact_overlap,
    normalize,
    tensor_product,
)

from conftest import overlap_matrix, random_state


def test_normalize_scales_by_inverse_norm():
    s = normalize([3, 4])
    assert np.allclose(s.amplitudes, [0.6, 0.8])


def test_normalize_keeps_normalized_input():
    s = normalize([1, 0])
    assert np.allclose(s.amplitudes, [1, 0])


def test_normalize_admits_four_decimal_rounding():
    # inputs rounded to 4 decimals stay within 1e-4 of themselves
    raw = [0.0864, 0.9963]
    s = parse_states({"width": 1, "states": [raw, [1, 0]]}).state(1)
    assert np.allclose(s.amplitudes, raw, atol=1e-4)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError, match="unnormalizable"):
        normalize([0.0, 0.0])


def test_normalize_rescales_a_norm_past_the_float_range(recwarn):
    s = normalize([1e200, 1e200])
    assert np.array_equal(s.amplitudes, normalize([1, 1]).amplitudes)
    assert np.array_equal(s.amplitudes, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(normalize([1e308j, -1e308]).amplitudes, [1j / np.sqrt(2), -1 / np.sqrt(2)])
    assert not recwarn.list  # numpy's overflow warning stays silent


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(1e-6, 1e150) | st.floats(-1e150, -1e-6),
        min_size=4,
        max_size=4,
    )
)
def test_normalize_keeps_the_bits_of_a_finite_norm(values):
    v = np.array(values, dtype=np.complex128)
    assert np.array_equal(normalize(values).amplitudes, v / np.linalg.norm(v))


def test_ensemble_refuses_a_norm_past_the_float_range(recwarn):
    with pytest.raises(ValueError, match=r"state 1 is not normalized \(norm np.float64\(inf\)\)"):
        StateEnsemble([[1e200, 1e200], [1, 0]])
    with pytest.raises(ValueError, match="not normalized"):
        PureState(np.array([1e200, 1e200]), 1)
    assert not recwarn.list


def test_normalize_rejects_non_power_of_two():
    with pytest.raises(ValueError, match="power of two"):
        normalize([1.0, 0.0, 0.0])


def test_purestate_rejects_nan():
    with pytest.raises(ValueError, match="finite"):
        PureState(np.array([np.nan, 1.0]), 1)


def test_exact_overlap_recorded_pair():
    a = normalize([0.0864, 0.9963])
    b = normalize([0.8391, 0.5440])
    assert exact_overlap(a, b) == pytest.approx(0.3774, abs=5e-4)


def test_exact_overlap_self_is_one():
    s = normalize([1, 2j, -1, 0.5])
    assert exact_overlap(s, s) == pytest.approx(1.0, abs=1e-10)


def test_exact_overlap_orthogonal_is_zero():
    assert exact_overlap(normalize([1, 0]), normalize([0, 1])) == 0.0


def test_exact_overlap_width_mismatch():
    with pytest.raises(ValueError, match="width mismatch"):
        exact_overlap(basis_state(1), basis_state(2))


def test_tensor_product_basis_states():
    s = tensor_product([normalize([1, 0]), normalize([0, 1])])
    assert np.allclose(s.amplitudes, [0, 1, 0, 0])


def test_tensor_product_uniform_superposition():
    plus = normalize([1, 1])
    s = tensor_product([plus, plus])
    assert np.allclose(s.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_tensor_product_against_index_oracle():
    a = normalize([0.0864, 0.9963])
    b = normalize([0.8391, 0.5440])
    s = tensor_product([a, b])
    # independent oracle: the amplitude at composite index (i, j) is the
    # product of the component amplitudes
    for i in range(2):
        for j in range(2):
            expected = a.amplitudes[i] * b.amplitudes[j]
            assert s.amplitudes[2 * i + j] == pytest.approx(expected, abs=1e-15)
    assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


def _state_vectors(width: int):
    size = 2 ** (width + 1)
    return (
        st.lists(
            st.floats(-1, 1, allow_nan=False, allow_infinity=False),
            min_size=size,
            max_size=size,
        )
        .map(lambda v: np.array(v[::2]) + 1j * np.array(v[1::2]))
        .filter(lambda v: np.linalg.norm(v) > 1e-3)
    )


@settings(max_examples=60, deadline=None)
@given(_state_vectors(2), _state_vectors(2))
def test_overlap_symmetry_and_bounds(u, v):
    a, b = normalize(u), normalize(v)
    assert exact_overlap(a, b) == exact_overlap(b, a)
    assert 0.0 <= exact_overlap(a, b) <= 1.0 + 1e-12
    assert exact_overlap(a, a) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(_state_vectors(1), _state_vectors(1), _state_vectors(2))
def test_tensor_product_associativity(u, v, w):
    a, b, c = normalize(u), normalize(v), normalize(w)
    left = tensor_product([tensor_product([a, b]), c])
    right = tensor_product([a, tensor_product([b, c])])
    assert np.allclose(left.amplitudes, right.amplitudes, atol=1e-12)


def test_ensemble_checks_size_and_width():
    for rows, message in [
        ([[1, 0]], "at least 2"),
        ([1, 0], "dimension"),
        ([[1, 0, 0], [0, 1, 0]], "power of two"),
        ([[1, 0], [np.nan, 1]], "finite"),
        ([[1, 0], [0.6, 0.8], [0.6, 0.7]], "state 3 is not normalized"),
    ]:
        with pytest.raises(ValueError, match=message):
            StateEnsemble(rows)
    with pytest.raises(ValueError):  # rows of different widths
        StateEnsemble([[1, 0], [1, 0, 0, 0]])


def test_ensemble_holds_a_read_only_copy():
    rows = np.array([[1, 0], [0.6, 0.8j]])
    ensemble = StateEnsemble(rows)
    assert ensemble.amplitudes.dtype == np.complex128 and ensemble.width == 1
    assert rows.flags.writeable and not np.shares_memory(rows, ensemble.amplitudes)
    with pytest.raises(ValueError):
        ensemble.amplitudes[0, 0] = 0.0


def test_ensemble_labels_are_one_based(d0):
    assert d0.n == 8
    assert np.shares_memory(d0.state(1).amplitudes, d0.amplitudes)
    assert np.array_equal(d0.state(1).amplitudes, d0.amplitudes[0])
    with pytest.raises(ValueError, match="out of range"):
        d0.state(9)
    assert d0.overlaps.shape == (28,)  # one entry per pair i < j


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_overlap_matrix_matches_pairwise_overlaps(width):
    # any n >= 2, not only a power of two: entry r is the pair at row r of
    # itertools.combinations, and the mirrored matrix is every pair's overlap
    rng = np.random.default_rng(width)
    for n in (2, 3, 7, 12):
        states = [random_state(rng, width) for _ in range(n)]
        ensemble = StateEnsemble([s.amplitudes for s in states])
        vector = ensemble.overlaps
        assert vector.shape == (n * (n - 1) // 2,)
        expected = [exact_overlap(a, b) for a, b in itertools.combinations(states, 2)]
        assert np.allclose(vector, expected, rtol=0, atol=1e-14)
        expected = [[exact_overlap(a, b) for b in states] for a in states]
        assert np.allclose(overlap_matrix(ensemble), expected, rtol=0, atol=1e-14)
        assert ensemble.overlaps is vector  # computed once
        with pytest.raises(ValueError):
            vector[0] = 0.0


def _random_amplitudes(seed: int, n: int, width: int) -> np.ndarray:
    """n Gaussian-drawn unit rows of 2**width amplitudes."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 2**width)) + 1j * rng.normal(size=(n, 2**width))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 1024), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(2048, 1, 0)
@example(2048, 2, 1)
@example(2048, 3, 2)
def test_overlaps_are_the_one_product_upper_triangle_bit_for_bit(n, width, seed):
    # every n <= 1024 is one row block; 2048 is several, and a power-of-two
    # n's blocks round as the rows of the whole product
    ensemble = StateEnsemble(_random_amplitudes(seed, n, width))
    re, im = ensemble.amplitudes.real, ensemble.amplitudes.imag
    gram = np.hypot(re @ re.T + im @ im.T, re @ im.T - im @ re.T) ** 2
    upper = gram[np.triu_indices(n, k=1)]
    assert (n <= 1024) == (states_module._GRAM_BLOCK // n >= n)
    assert np.array_equal(ensemble.overlaps.view(np.uint64), upper.view(np.uint64))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 300), st.integers(1, 3), st.integers(2, 8), st.integers(0, 2**32 - 1))
@example(1500, 2, 3, 0)
def test_overlaps_in_small_row_blocks_stay_exact(n, width, rows, seed):
    # blocks of 2-8 rows, a partial last block included, still put each
    # pair's overlap at its combinations row
    ensemble = StateEnsemble(_random_amplitudes(seed, n, width))
    with mock.patch.object(states_module, "_GRAM_BLOCK", rows * n):
        vector = ensemble.overlaps
    assert vector.shape == (n * (n - 1) // 2,)
    first, second = np.triu_indices(n, k=1)
    ranks = np.arange(0, len(vector), max(1, len(vector) // 4000))
    members = [ensemble.state(label) for label in range(1, n + 1)]
    expected = [exact_overlap(members[first[r]], members[second[r]]) for r in ranks]
    assert np.allclose(vector[ranks], expected, rtol=0, atol=1e-14)


def test_overlaps_build_no_gram_matrix():
    # at n=4096 the vector is 64 MiB and an (n, n) float64 matrix 128 MiB:
    # the row blocks keep the whole computation under two vectors
    ensemble = StateEnsemble(_random_amplitudes(5, 4096, 1))
    tracemalloc.start()
    try:
        vector = ensemble.overlaps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * vector.nbytes
