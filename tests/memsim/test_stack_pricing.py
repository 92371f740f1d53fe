"""Differential tests: stack pricing of LRU hierarchies against replay.

``backend="auto"`` prices every cold run on a non-inclusive LRU
hierarchy (TLB included) from stack distances instead of replaying it.
The oracle is ``backend="scalar"``, the per-access replayer: counters,
per-level totals, access counts, per-thread cycles and every level's
stats must come out equal, bit for bit.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import (
    BilateralCell,
    VolrendCell,
    default_ivybridge,
    default_mic,
    run_bilateral_cell,
    run_volrend_cell,
)
from repro.memsim import (
    Cache,
    CacheConfig,
    CostModel,
    LevelSpec,
    PlatformSpec,
    SimulationEngine,
    ThreadWork,
    TraceChunk,
    lru_hits,
)


def _assert_priced_equals_replay(spec, works, quantum=256, cost=None):
    priced = SimulationEngine(spec, cost, quantum=quantum, backend="auto")
    assert priced.uses_stack
    replayed = SimulationEngine(spec, cost, quantum=quantum,
                                backend="scalar")
    got, ref = priced.run(works), replayed.run(works)
    assert got.counters == ref.counters
    assert got.level_served == ref.level_served
    assert got.n_accesses == ref.n_accesses
    assert got.per_thread_cycles == ref.per_thread_cycles
    assert got.runtime_seconds == ref.runtime_seconds
    names = spec.level_names() + ([spec.tlb.name] if spec.tlb else [])
    for name in names:
        assert priced.machine.level_stats(name) \
            == replayed.machine.level_stats(name), name


def _counters(levels, tlb):
    out = {}
    for lv in levels:
        out[f"{lv.cache.name}_TCA"] = (lv.cache.name, "accesses")
        out[f"{lv.cache.name}_TCM"] = (lv.cache.name, "misses")
    if tlb is not None:
        out["TLB_DM"] = (tlb.name, "misses")
    return out


def _platform(levels, n_cores=1, n_sockets=1, tlb=None, **kw):
    return PlatformSpec(name="test", n_cores=n_cores, n_sockets=n_sockets,
                        smt=4, freq_ghz=1.0, levels=tuple(levels),
                        mem_latency_cycles=kw.pop("mem_latency_cycles", 100.0),
                        counters=_counters(levels, tlb), tlb=tlb, **kw)


def _level(name, n_sets, ways, scope="core", latency=4.0):
    return LevelSpec(CacheConfig(name, n_sets * ways * 64, ways=ways),
                     scope=scope, latency_cycles=latency)


@st.composite
def hierarchies(draw):
    n_sockets = draw(st.integers(1, 2))
    n_cores = n_sockets * draw(st.integers(1, 2))
    levels = [
        _level(f"L{i + 1}", draw(st.sampled_from([1, 2, 4, 8])),
               draw(st.integers(1, 9)),
               scope=draw(st.sampled_from(["core", "socket", "machine"])),
               latency=float(draw(st.integers(1, 40))))
        for i in range(draw(st.integers(1, 3)))
    ]
    tlb = None
    if draw(st.booleans()):
        sets, ways = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 5))
        page = 64 * draw(st.sampled_from([1, 2, 8]))
        tlb = CacheConfig("TLB", sets * ways * page, line_bytes=page,
                          ways=ways)
    # dyadic costs: histogram pricing (single fully-associative level)
    # sums whole-thread totals, which is exact only for such costs
    return _platform(levels, n_cores, n_sockets, tlb,
                     mem_latency_cycles=float(draw(st.integers(50, 300))),
                     mem_parallelism=draw(st.sampled_from([1.0, 2.0, 4.0])))


@st.composite
def workloads(draw, n_cores):
    works = []
    for tid in range(draw(st.integers(0, 4))):
        lines = draw(st.lists(st.integers(0, 47), max_size=150))
        works.append(ThreadWork(
            tid, draw(st.integers(0, n_cores - 1)),
            TraceChunk(lines=np.asarray(lines, dtype=np.int64),
                       collapsed_hits=draw(st.integers(0, 5)),
                       n_ops=draw(st.integers(0, 50)))))
    return works


class TestRandomHierarchies:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_priced_equals_scalar_replay(self, data):
        spec = data.draw(hierarchies())
        works = data.draw(workloads(spec.n_cores))
        quantum = data.draw(st.integers(1, 300))
        _assert_priced_equals_replay(spec, works, quantum)

    def test_non_dyadic_costs_sum_in_replay_order(self):
        # latencies with no exact binary form: per-batch cycles only
        # match replay when they are added up in the same order
        spec = _platform([_level("L1", 2, 3, latency=4.1),
                          _level("L2", 4, 5, scope="socket", latency=12.3)],
                         n_cores=2,
                         tlb=CacheConfig("TLB", 2 * 2 * 256, line_bytes=256,
                                         ways=2),
                         mem_latency_cycles=230.0, mem_parallelism=3.0,
                         tlb_miss_cycles=29.7)
        rng = np.random.default_rng(5)
        works = [ThreadWork(t, t % 2, TraceChunk(
            lines=rng.integers(0, 90, 700).astype(np.int64),
            collapsed_hits=3, n_ops=17)) for t in range(3)]
        cost = CostModel(cpi_compute=0.7, issue_cycles_per_access=0.3)
        _assert_priced_equals_replay(spec, works, quantum=7, cost=cost)


def _named_streams(ways):
    period = np.arange(ways)
    return {
        # every reuse sees W - 1 other lines: all hits after the fills
        "cyclic-W": np.tile(period, 6),
        # every reuse sees W other lines: LRU thrashes, all misses
        "cyclic-W+1": np.tile(np.arange(ways + 1), 6),
        # x's reuse window holds only two distinct lines but 800
        # accesses: only the deep scan can settle it
        "alternation-then-return": np.array([9] + [1, 2] * 400 + [9]),
        "alternation-then-third": np.array([9] + [1, 2] * 400
                                           + [3, 9, 1, 2, 3, 9]),
    }


class TestWayBoundary:
    @pytest.mark.parametrize("ways", [1, 2, 3, 4, 7, 8, 9])
    @pytest.mark.parametrize("n_sets", [1, 4])
    def test_named_streams_match_scalar_cache(self, ways, n_sets):
        for name, stream in _named_streams(ways).items():
            # the pattern in set 0, interleaved with distinct lines of
            # set 1 that must not disturb it
            lines = stream.astype(np.int64) * n_sets
            if n_sets > 1:
                noise = np.arange(lines.size, dtype=np.int64) * n_sets + 1
                lines = np.stack([lines, noise], axis=1).ravel()
            cache = Cache(CacheConfig("L", n_sets * ways * 64, ways=ways))
            missed = cache.access_lines(lines)
            hits, fills = lru_hits(lines, n_sets, ways)
            assert np.array_equal(lines[~hits], missed), name
            assert missed.size - fills == cache.stats.evictions, name

    @pytest.mark.parametrize("ways", [1, 2, 3, 8, 9])
    def test_cyclic_streams_hit_below_and_miss_at_the_boundary(self, ways):
        streams = _named_streams(ways)
        hits, _ = lru_hits(streams["cyclic-W"], 1, ways)
        assert int((~hits).sum()) == ways
        hits, _ = lru_hits(streams["cyclic-W+1"], 1, ways)
        assert not hits.any()

    @pytest.mark.parametrize("ways", [2, 3, 4])
    def test_deep_scan_through_a_hierarchy(self, ways):
        spec = _platform([_level("L1", 1, ways), _level("L2", 2, ways + 1)],
                         tlb=CacheConfig("TLB", 4 * 64, line_bytes=64, ways=4))
        streams = _named_streams(ways)
        works = [ThreadWork(0, 0, TraceChunk(
            lines=streams["alternation-then-third"].astype(np.int64)))]
        _assert_priced_equals_replay(spec, works, quantum=64)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="power of two"):
            lru_hits([1, 2], 3, 2)
        with pytest.raises(ValueError, match="ways"):
            lru_hits([1, 2], 2, 0)


def _cell_results_equal(run, cell):
    # counters, runtime and the whole SimResult (wall time excluded)
    assert run(cell) == run(replace(cell, backend="scalar"))


class TestFigureCells:
    """Small versions of the paper's figure cells, priced vs replayed."""

    def test_fig2_bilateral_ivybridge(self):
        _cell_results_equal(run_bilateral_cell, BilateralCell(
            platform=default_ivybridge(64), shape=(16, 16, 16), n_threads=4,
            stencil="r3", pencil="pz", stencil_order="zyx", layout="array"))

    def test_fig3_bilateral_mic(self):
        _cell_results_equal(run_bilateral_cell, BilateralCell(
            platform=default_mic(64), shape=(32, 32, 32), n_threads=16,
            affinity="balanced", usable_cores=59, sample_cores=8,
            stencil="r1", layout="morton"))

    def test_fig5_volrend_ivybridge(self):
        _cell_results_equal(run_volrend_cell, VolrendCell(
            platform=default_ivybridge(64), shape=(32, 32, 32),
            image_size=64, n_threads=4, viewpoint=2, layout="array"))

    def test_fig6_volrend_mic(self):
        _cell_results_equal(run_volrend_cell, VolrendCell(
            platform=default_mic(64), shape=(16, 16, 16), image_size=128,
            n_threads=8, affinity="balanced", usable_cores=59,
            sample_cores=8, viewpoint=5, layout="morton"))


class TestWarmRuns:
    def _works(self):
        chunk = TraceChunk(lines=np.arange(40, dtype=np.int64) % 13)
        return [ThreadWork(0, 0, chunk)]

    def test_warm_run_after_priced_run_raises(self):
        eng = SimulationEngine(default_ivybridge(64))
        eng.run(self._works())
        with pytest.raises(ValueError, match="cold"):
            eng.run(self._works(), reset=False)

    def test_warm_run_after_replayed_run_continues(self):
        # auto replays a warm run; only continuing a priced run is refused
        auto = SimulationEngine(default_ivybridge(64))
        scalar = SimulationEngine(default_ivybridge(64), backend="scalar")
        for _ in range(2):
            assert auto.run(self._works(), reset=False) \
                == scalar.run(self._works(), reset=False)
        # and a cold run after replay prices from empty caches again
        assert auto.run(self._works()) == scalar.run(self._works())
