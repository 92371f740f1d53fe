"""Tests for reuse-distance, stride-spectrum, and working-set analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    INFINITE_DISTANCE,
    StrideSpectrum,
    compare_spectra,
    footprint,
    miss_ratio_curve,
    reuse_distance_histogram,
    stride_spectrum,
    working_set_curve,
)
from repro.memsim import Cache, CacheConfig

lines_st = st.lists(st.integers(0, 40), min_size=0, max_size=200)


def _reuse_stack(lines) -> dict:
    """Reference O(n·d) stack simulation of the reuse histogram."""
    stack: list = []
    hist: dict = {}
    for ln in np.asarray(lines, dtype=np.int64).ravel().tolist():
        try:
            depth = stack.index(ln)
        except ValueError:
            depth = INFINITE_DISTANCE
        else:
            del stack[depth]
        stack.insert(0, ln)
        hist[depth] = hist.get(depth, 0) + 1
    return hist


ADVERSARIAL_STREAMS = {
    "all-distinct": np.arange(150, dtype=np.int64),
    "all-same": np.zeros(150, dtype=np.int64),
    "periodic": np.tile(np.arange(5, dtype=np.int64), 30),
    "single-element": np.array([9], dtype=np.int64),
}


class TestReuseDistance:
    def test_known_sequence(self):
        # a b c a : a's second access has distance 2 (b, c in between)
        hist = reuse_distance_histogram([1, 2, 3, 1])
        assert hist[INFINITE_DISTANCE] == 3
        assert hist[2] == 1

    def test_immediate_reuse(self):
        hist = reuse_distance_histogram([5, 5, 5])
        assert hist[0] == 2

    def test_repeated_intervening_lines_counted_once(self):
        # a b b b a : only ONE distinct line between the two a's
        hist = reuse_distance_histogram([1, 2, 2, 2, 1])
        assert hist[1] == 1  # the a-reuse
        assert hist[0] == 2  # the b-repeats

    @given(lines_st)
    def test_matches_stack(self, lines):
        assert reuse_distance_histogram(lines) == _reuse_stack(lines)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_STREAMS))
    def test_adversarial_vs_stack(self, name):
        arr = ADVERSARIAL_STREAMS[name]
        assert reuse_distance_histogram(arr) == _reuse_stack(arr)

    @given(lines_st)
    def test_total_count_preserved(self, lines):
        hist = reuse_distance_histogram(lines)
        assert sum(hist.values()) == len(lines)
        assert hist.get(INFINITE_DISTANCE, 0) == len(set(lines))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
    def test_miss_ratio_curve_matches_fully_assoc_lru(self, lines):
        """The defining identity: MRC(c) == simulated fully-associative
        LRU cache of c lines."""
        hist = reuse_distance_histogram(lines)
        for c_lines in (1, 4, 16):
            cache = Cache(CacheConfig("FA", c_lines * 64, line_bytes=64,
                                      ways=c_lines))
            missed = cache.access_lines(np.array(lines, dtype=np.int64))
            expect = len(missed) / len(lines)
            got = miss_ratio_curve(hist, [c_lines])[0]
            assert got == pytest.approx(expect)

    def test_miss_ratio_monotone_decreasing(self):
        rng = np.random.default_rng(0)
        lines = rng.integers(0, 64, size=2000).tolist()
        hist = reuse_distance_histogram(lines)
        curve = miss_ratio_curve(hist, [1, 2, 4, 8, 16, 32, 64, 128])
        assert np.all(np.diff(curve) <= 1e-12)

    def test_empty_stream(self):
        assert reuse_distance_histogram([]) == {}
        assert np.allclose(miss_ratio_curve({}, [1, 2]), 0.0)


def _miss_ratio_curve_reference(hist, capacities):
    """The pre-optimization per-capacity loop, kept as the regression
    oracle for the sorted-cumulative-count implementation."""
    total = sum(hist.values())
    if total == 0:
        return np.zeros(len(capacities))
    distances = np.array(
        [d for d in hist if d != INFINITE_DISTANCE], dtype=np.int64)
    counts = np.array(
        [hist[d] for d in hist if d != INFINITE_DISTANCE], dtype=np.int64)
    cold = hist.get(INFINITE_DISTANCE, 0)
    out = np.empty(len(capacities), dtype=np.float64)
    for n, c in enumerate(capacities):
        out[n] = (counts[distances >= c].sum() + cold) / total
    return out


class TestMissRatioCurveRegression:
    """The vectorized MRC must be exactly equal to the old loop."""

    @given(lines_st)
    def test_exact_equality_with_old_loop(self, lines):
        hist = reuse_distance_histogram(lines)
        caps = [1, 2, 3, 5, 8, 13, 21, 64, 1000]
        new = miss_ratio_curve(hist, caps)
        old = _miss_ratio_curve_reference(hist, caps)
        assert new.tolist() == old.tolist()  # bit-for-bit, not approx

    def test_all_cold_histogram(self):
        hist = {INFINITE_DISTANCE: 7}
        assert miss_ratio_curve(hist, [1, 4]).tolist() \
            == _miss_ratio_curve_reference(hist, [1, 4]).tolist()

    def test_unsorted_histogram_keys(self):
        # dicts preserve insertion order; the curve must not depend on it
        hist = {5: 2, INFINITE_DISTANCE: 3, 1: 4, 17: 1}
        caps = [1, 2, 6, 18]
        assert miss_ratio_curve(hist, caps).tolist() \
            == _miss_ratio_curve_reference(hist, caps).tolist()


class TestNativeArrayInput:
    def test_ndarray_accepted_without_tolist(self):
        arr = np.array([1, 2, 3, 1], dtype=np.int64)
        hist = reuse_distance_histogram(arr)
        assert hist == {INFINITE_DISTANCE: 3, 2: 1}
        # keys are Python ints, not np.int64 leftovers
        assert all(type(k) is int for k in hist)

    def test_multidimensional_array_flattened(self):
        arr = np.array([[1, 2], [3, 1]], dtype=np.int64)
        assert reuse_distance_histogram(arr) \
            == reuse_distance_histogram(arr.ravel())

    def test_non_contiguous_view(self):
        base = np.arange(20, dtype=np.int64)
        view = base[::2]  # stride-2 view, never copied by the caller
        assert reuse_distance_histogram(view) \
            == reuse_distance_histogram(view.tolist())

    def test_rejects_non_numeric(self):
        with pytest.raises(TypeError):
            reuse_distance_histogram(np.array(["x", "y"]))


class TestStrideSpectrum:
    def test_sequential_stream(self):
        spec = stride_spectrum(np.arange(100))
        assert spec.unit == 1.0
        assert spec.far == 0.0
        assert spec.n_strides == 99

    def test_plane_jump_stream(self):
        spec = stride_spectrum(np.arange(0, 100 * 4096, 4096))
        assert spec.far == 1.0

    def test_buckets_sum_to_one(self, rng):
        offs = rng.integers(0, 10 ** 6, size=500)
        spec = stride_spectrum(offs)
        total = sum(spec.as_dict().values())
        assert total == pytest.approx(1.0)

    def test_empty(self):
        spec = stride_spectrum(np.array([], dtype=np.int64))
        assert spec.n_strides == 0

    def test_compare_spectra(self):
        out = compare_spectra({
            "seq": np.arange(10),
            "jump": np.arange(0, 10 * 5000, 5000),
        })
        assert out["seq"].unit == 1.0
        assert out["jump"].far == 1.0

    def test_bucket_edges(self):
        offs = np.array([0, 0, 1, 9, 109, 5000])
        spec = stride_spectrum(offs, line_elems=16, near_elems=1024)
        assert spec.same == pytest.approx(1 / 5)
        assert spec.unit == pytest.approx(1 / 5)
        assert spec.line == pytest.approx(1 / 5)   # |8| < 16
        assert spec.near == pytest.approx(1 / 5)   # |100| < 1024
        assert spec.far == pytest.approx(1 / 5)    # |4891|


class TestWorkingSet:
    def test_constant_stream(self):
        ws = working_set_curve(np.zeros(100, dtype=np.int64), [1, 10, 50])
        assert ws == {1: 1.0, 10: 1.0, 50: 1.0}

    def test_sequential_stream(self):
        ws = working_set_curve(np.arange(100), [1, 10, 50])
        assert ws[1] == 1.0
        assert ws[10] == 10.0
        assert ws[50] == 50.0

    def test_window_larger_than_stream(self):
        ws = working_set_curve(np.array([1, 2, 1]), [10])
        assert ws[10] == 2.0

    def test_monotone_in_window_size(self, rng):
        lines = rng.integers(0, 30, size=500)
        ws = working_set_curve(lines, [1, 4, 16, 64, 256], max_windows=500)
        values = [ws[w] for w in (1, 4, 16, 64, 256)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_validation_and_degenerate(self):
        with pytest.raises(ValueError):
            working_set_curve(np.arange(5), [0])
        assert working_set_curve(np.array([], dtype=np.int64), [4]) == {4: 0.0}

    def test_footprint(self):
        assert footprint(np.array([1, 1, 2, 3])) == 3
        assert footprint(np.array([], dtype=np.int64)) == 0
