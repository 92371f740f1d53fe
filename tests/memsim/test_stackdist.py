"""Tests for single-pass stack-distance pricing.

The load-bearing property: on every fully-associative LRU platform in
the cross-validation matrix, ``backend="auto"`` must produce miss
counts *bit-for-bit* equal to the replayer — pricing is a
reformulation, not an approximation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    Cache,
    CacheConfig,
    HistogramStore,
    LevelSpec,
    PlatformSpec,
    SimulationEngine,
    StackDistanceHistogram,
    ThreadWork,
    TraceChunk,
    fully_associative_spec,
    get_platform,
    per_thread_histograms,
    prices_by_histogram,
    stack_distance_histogram,
    stack_distances,
    stack_ineligibility,
)
from repro.memsim.prefetch import PrefetchConfig
from repro.memsim.stackdist import _count_earlier_greater, stream_key
from tests.analysis.test_analysis import _reuse_stack

lines_st = st.lists(st.integers(0, 40), min_size=0, max_size=300)

ADVERSARIAL = {
    "all-distinct": np.arange(200, dtype=np.int64),
    "all-same": np.zeros(200, dtype=np.int64),
    "periodic": np.tile(np.arange(7, dtype=np.int64), 40),
    "single-element": np.array([42], dtype=np.int64),
    "empty": np.array([], dtype=np.int64),
    "two-phase": np.concatenate([np.arange(50), np.arange(50)[::-1]]),
}


def brute_lru_misses(seq, capacity):
    """Oracle: simulate a fully-associative LRU cache one access at a time."""
    resident: OrderedDict = OrderedDict()
    misses = 0
    for x in seq:
        if x in resident:
            resident.move_to_end(x)
        else:
            misses += 1
            if len(resident) >= capacity:
                resident.popitem(last=False)
            resident[x] = True
    return misses


class TestStackDistances:
    @given(lines_st)
    @settings(max_examples=60)
    def test_matches_stack_reference(self, lines):
        arr = np.asarray(lines, dtype=np.int64)
        assert stack_distance_histogram(arr).as_dict() == _reuse_stack(lines)

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_patterns(self, name):
        arr = ADVERSARIAL[name]
        assert stack_distance_histogram(arr).as_dict() == _reuse_stack(arr)

    def test_per_access_distances(self):
        # a b b b a : one distinct line between the two a's
        assert stack_distances([1, 2, 2, 2, 1]).tolist() == [-1, -1, 0, 0, 1]

    def test_cold_count_is_distinct_lines(self):
        rng = np.random.default_rng(0)
        arr = rng.integers(0, 37, size=500)
        hist = stack_distance_histogram(arr)
        assert hist.cold == np.unique(arr).size
        assert hist.total == arr.size

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            stack_distances(np.array(["a", "b"]))

    @given(st.lists(st.one_of(st.integers(0, 300),
                              st.integers((1 << 31) - 40, 1 << 33)),
                    max_size=40, unique=True))
    @settings(max_examples=150)
    def test_merge_count_matches_brute_force(self, values):
        # positions from short streams and past 2**31, mixed
        expect = [sum(1 for v in values[:i] if v > x)
                  for i, x in enumerate(values)]
        got = _count_earlier_greater(np.asarray(values, dtype=np.int64))
        assert got.tolist() == expect

    @pytest.mark.parametrize("top", [(1 << 31) - 5, 1 << 31,
                                     (1 << 32) + 7])
    def test_merge_count_past_int32(self, top):
        # three values padded to four, the pad just above ``top``
        values = [top - 5, top, 3]
        got = _count_earlier_greater(np.asarray(values, dtype=np.int64))
        assert got.tolist() == [0, 0, 2]


class TestHistogramPricing:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 16, 64, 1000])
    def test_misses_match_brute_force_lru(self, capacity):
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 50, size=800).tolist()
        hist = stack_distance_histogram(seq)
        assert hist.misses(capacity) == brute_lru_misses(seq, capacity)

    def test_miss_counts_vectorized_over_capacities(self):
        rng = np.random.default_rng(2)
        seq = rng.integers(0, 80, size=600)
        hist = stack_distance_histogram(seq)
        caps = [1, 2, 4, 8, 16, 32, 64, 128]
        assert hist.miss_counts(caps).tolist() \
            == [hist.misses(c) for c in caps]

    def test_evictions_formula(self):
        # misses - min(distinct, C): cold fills into empty ways are
        # not evictions, exactly the replayer's counting rule
        seq = [0, 1, 2, 0, 3, 4, 0]
        hist = stack_distance_histogram(seq)
        assert hist.evictions(2) == hist.misses(2) - 2
        assert hist.evictions(100) == 0

    def test_rejects_nonpositive_capacity(self):
        hist = stack_distance_histogram([1, 2, 1])
        with pytest.raises(ValueError):
            hist.miss_counts([0])

    def test_empty_histogram(self):
        hist = StackDistanceHistogram.empty()
        assert hist.total == 0
        assert hist.misses(4) == 0


class TestPerThread:
    def test_partition_of_shared_stream(self):
        rng = np.random.default_rng(3)
        lines = rng.integers(0, 60, size=400)
        tids = rng.integers(0, 3, size=400)
        hists = per_thread_histograms(lines, tids)
        dist = stack_distances(lines)
        for tid, hist in hists.items():
            expect = StackDistanceHistogram.from_distances(dist[tids == tid])
            assert hist.as_dict() == expect.as_dict()
        # the split is exhaustive: totals and miss counts add up
        combined = stack_distance_histogram(lines)
        assert sum(h.total for h in hists.values()) == combined.total
        for c in (4, 16, 64):
            assert sum(h.misses(c) for h in hists.values()) \
                == combined.misses(c)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            per_thread_histograms([1, 2, 3], [0, 0])


class TestHistogramStore:
    def test_capacity_not_part_of_key(self):
        # the whole point: one histogram prices every geometry
        lines = np.array([1, 2, 3, 1], dtype=np.int64)
        tids = np.zeros(4, dtype=np.int64)
        store = HistogramStore()
        k1 = stream_key(lines, tids)
        store.get_or_compute(k1, lambda: per_thread_histograms(lines, tids))
        assert store.get_or_compute(k1, lambda: pytest.fail("recomputed"))


def _works(rng, spec, n_threads, n, k, collapsed=0):
    return [
        ThreadWork(
            thread_id=t, core=t % spec.n_cores,
            chunk=TraceChunk(
                lines=rng.integers(0, k, size=n).astype(np.int64),
                collapsed_hits=collapsed, n_ops=100 + 13 * t))
        for t in range(n_threads)
    ]


class TestEngineStackBackend:
    """Cross-validation matrix: stack pricing vs the scalar replayer."""

    MATRIX = [
        # (capacity_lines, n_threads, n_cores, n_sockets, scope)
        (4, 1, 1, 1, "core"),
        (16, 2, 2, 1, "core"),      # private instances
        (16, 4, 2, 1, "core"),      # two threads share each core cache
        (64, 4, 4, 2, "socket"),    # socket-shared instances
        (64, 3, 2, 1, "machine"),   # one global instance
        (257, 2, 2, 1, "machine"),  # non-power-of-two capacity
    ]

    @pytest.mark.parametrize("cap,n_threads,n_cores,n_sockets,scope", MATRIX)
    def test_bit_for_bit_vs_vector_replayer(self, cap, n_threads, n_cores,
                                            n_sockets, scope):
        rng = np.random.default_rng(cap + n_threads)
        spec = fully_associative_spec(cap, n_cores=n_cores,
                                      n_sockets=n_sockets, scope=scope)
        works = _works(rng, spec, n_threads, 600, 300, collapsed=5)
        ref_eng = SimulationEngine(spec, backend="scalar", quantum=64)
        ref = ref_eng.run(works)
        stk_eng = SimulationEngine(spec, quantum=64)
        assert stk_eng.uses_stack
        got = stk_eng.run(works)
        # integer counts: exact equality
        assert got.counters == ref.counters
        assert got.level_served == ref.level_served
        assert got.n_accesses == ref.n_accesses
        # full per-instance stats, including evictions
        assert stk_eng.machine.level_stats("L1") \
            == ref_eng.machine.level_stats("L1")
        # float accounting: same linear model, different summation order
        assert got.runtime_seconds \
            == pytest.approx(ref.runtime_seconds, rel=1e-12)
        for tid, cycles in ref.per_thread_cycles.items():
            assert got.per_thread_cycles[tid] \
                == pytest.approx(cycles, rel=1e-12)

    def test_histograms_cached_across_capacities(self):
        rng = np.random.default_rng(7)
        store = HistogramStore()
        chunk = TraceChunk(lines=rng.integers(0, 200, 500).astype(np.int64),
                           collapsed_hits=0, n_ops=10)
        works = [ThreadWork(0, 0, chunk)]
        for cap in (8, 16, 32, 64):
            spec = fully_associative_spec(cap)
            eng = SimulationEngine(spec, histogram_store=store)
            eng.run(works)
        assert store.misses == 1  # one analysis pass, four pricings
        assert store.hits == 3

    def test_empty_works(self):
        spec = fully_associative_spec(8)
        res = SimulationEngine(spec).run([])
        assert res.n_accesses == 0
        assert res.runtime_seconds == 0.0

    @pytest.mark.parametrize("spec", [fully_associative_spec(8),
                                      get_platform("ivybridge", 64)],
                             ids=["histogram", "levels"])
    def test_empty_run_level_served_matches_replay(self, spec):
        # replay names no level when no batch ran; neither may pricing
        idle = [ThreadWork(0, 0, TraceChunk(
            lines=np.empty(0, dtype=np.int64)))]
        for works in ([], idle):
            ref = SimulationEngine(spec, backend="scalar").run(works)
            assert ref.level_served == {"MEM": 0.0}
            got = SimulationEngine(spec).run(works)
            assert got.level_served == ref.level_served

    def test_collapsed_hits_only_thread(self):
        spec = fully_associative_spec(8)
        empty = TraceChunk(lines=np.empty(0, dtype=np.int64),
                           collapsed_hits=11, n_ops=5)
        ref = SimulationEngine(spec, backend="scalar").run(
            [ThreadWork(0, 0, empty)])
        got = SimulationEngine(spec).run([ThreadWork(0, 0, empty)])
        assert got.counters == ref.counters
        assert got.level_served == ref.level_served

    def test_out_of_range_core_rejected(self):
        spec = fully_associative_spec(8, n_cores=2)
        chunk = TraceChunk(lines=np.array([1], dtype=np.int64),
                           collapsed_hits=0, n_ops=1)
        with pytest.raises(ValueError, match="core"):
            SimulationEngine(spec).run([ThreadWork(0, 5, chunk)])


class TestStackFallback:
    """Eligible platforms price exactly; ineligible ones replay, never
    returning wrong counts."""

    def _eligible_specs(self):
        fa = fully_associative_spec(16)
        level = fa.levels[0]
        return {
            "set-associative": replace(fa, levels=(replace(
                level, cache=CacheConfig("L1", 4 * 2 * 64, ways=2)),)),
            "tlb": replace(fa, tlb=CacheConfig(
                "TLB", 16 * 4096, line_bytes=4096, ways=4)),
            "multi-level": get_platform("ivybridge"),
        }

    def _ineligible_specs(self):
        fa = fully_associative_spec(16)
        level = fa.levels[0]
        non_lru = replace(fa, levels=(replace(
            level, cache=replace(level.cache, replacement="fifo")),))
        prefetching = replace(fa, levels=(replace(
            level, prefetch=PrefetchConfig()),))
        inclusive = replace(get_platform("ivybridge"), inclusive=True)
        return {
            "non-lru": non_lru,
            "prefetcher": prefetching,
            "inclusive": inclusive,
        }

    def test_ineligibility_reasons(self):
        assert stack_ineligibility(fully_associative_spec(4)) is None
        for name, spec in self._eligible_specs().items():
            assert stack_ineligibility(spec) is None, name
        for name, spec in self._ineligible_specs().items():
            assert stack_ineligibility(spec) is not None, name

    def test_only_single_level_fully_associative_uses_histograms(self):
        assert prices_by_histogram(fully_associative_spec(4))
        for name, spec in self._eligible_specs().items():
            assert not prices_by_histogram(spec), name
        for name, spec in self._ineligible_specs().items():
            assert not prices_by_histogram(spec), name

    @pytest.mark.parametrize("which", ["set-associative", "tlb",
                                       "multi-level"])
    def test_eligible_matches_replayer(self, which):
        spec = self._eligible_specs()[which]
        rng = np.random.default_rng(11)
        works = _works(rng, spec, 2, 300, 500)
        eng = SimulationEngine(spec)
        assert eng.uses_stack
        assert eng.stack_fallback_reason is None
        got = eng.run(works)
        ref_eng = SimulationEngine(spec, backend="scalar")
        ref = ref_eng.run(works)
        assert got == ref  # counters, totals and cycles, bit for bit
        names = spec.level_names() + ([spec.tlb.name] if spec.tlb else [])
        for name in names:
            assert eng.machine.level_stats(name) \
                == ref_eng.machine.level_stats(name), name

    @pytest.mark.parametrize("which", ["non-lru", "prefetcher", "inclusive"])
    def test_fallback_matches_replayer(self, which):
        spec = self._ineligible_specs()[which]
        rng = np.random.default_rng(11)
        works = _works(rng, spec, 2, 300, 500)
        eng = SimulationEngine(spec)
        assert not eng.uses_stack
        assert eng.stack_fallback_reason
        got = eng.run(works)
        ref = SimulationEngine(spec, backend="scalar").run(works)
        assert got.counters == ref.counters
        assert got.runtime_seconds == ref.runtime_seconds

    def test_multi_level_counterexample(self):
        # x y x z w x through L1=2, L2=3 lines: the final x is an L2
        # miss in reality but a hit by global-histogram pricing — the
        # reason hierarchies are priced level by level instead.
        stream = np.array([0, 1, 0, 2, 3, 0], dtype=np.int64)
        hist = stack_distance_histogram(stream)
        naive_l2_misses = hist.misses(3)
        l1 = Cache(CacheConfig("L1", 2 * 64, ways=2))
        l2 = Cache(CacheConfig("L2", 3 * 64, ways=3))
        actual_l2_misses = l2.access_lines(l1.access_lines(stream)).size
        assert naive_l2_misses != actual_l2_misses
        # level-by-level pricing sees the 5 L2 misses replay does
        assert actual_l2_misses == 5
        spec = replace(fully_associative_spec(2), levels=(
            LevelSpec(CacheConfig("L1", 2 * 64, ways=2)),
            LevelSpec(CacheConfig("L2", 3 * 64, ways=3))),
            counters={"L2_TCM": ("L2", "misses")})
        works = [ThreadWork(0, 0, TraceChunk(lines=stream))]
        for backend in ("auto", "scalar"):
            eng = SimulationEngine(spec, backend=backend)
            assert eng.uses_stack == (backend == "auto")
            assert eng.run(works).counters == {"L2_TCM": 5.0}

    def test_engine_rejects_unknown_backend(self):
        for backend in ("bogus", "vector", "stack"):
            with pytest.raises(ValueError, match="backend") as err:
                SimulationEngine(fully_associative_spec(8), backend=backend)
            assert "'auto'" in str(err.value) and "'scalar'" in str(err.value)
