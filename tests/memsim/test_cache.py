"""Unit and property tests for the set-associative cache simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import Cache, CacheConfig, CacheStats

lines_st = st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                    max_size=400).map(lambda xs: np.array(xs, dtype=np.int64))


def _mk(capacity=1024, ways=2, replacement="lru", line=64):
    return Cache(CacheConfig("T", capacity, line_bytes=line, ways=ways,
                             replacement=replacement))


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig("L1", 64 * 1024, line_bytes=64, ways=8)
        assert cfg.n_sets == 128
        assert cfg.n_lines == 1024

    def test_rejects_non_pow2_sets(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 3 * 64 * 8, line_bytes=64, ways=8)

    def test_rejects_bad_line(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 1024, line_bytes=48, ways=2)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 1024, ways=2, replacement="mru")

    def test_direct_requires_one_way(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 1024, ways=2, replacement="direct")

    def test_plru_requires_pow2_ways(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 64 * 3 * 4, line_bytes=64, ways=3,
                        replacement="plru")

    def test_non_pow2_ways_allowed_for_lru(self):
        cfg = CacheConfig("L3", 30 * 1024 * 1024, line_bytes=64, ways=30)
        assert cfg.n_sets == 16384

    def test_scaled(self):
        cfg = CacheConfig("L2", 256 * 1024, line_bytes=64, ways=8)
        small = cfg.scaled(64)
        assert small.capacity_bytes == 4 * 1024
        assert small.ways == 8
        assert small.n_sets == 8

    def test_scaled_floors_at_one_set(self):
        cfg = CacheConfig("L1", 1024, line_bytes=64, ways=2)
        tiny = cfg.scaled(10 ** 6)
        assert tiny.n_sets == 1

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 1024, ways=2).scaled(0)


class TestLRUBehaviour:
    def test_cold_misses_then_hits(self):
        c = _mk()
        missed = c.access_lines([0, 1, 2, 0, 1, 2])
        assert list(missed) == [0, 1, 2]
        assert c.stats.accesses == 6
        assert c.stats.hits == 3
        assert c.stats.misses == 3

    def test_lru_eviction_order(self):
        # 8 sets, 2 ways: lines 0, 8, 16 all map to set 0
        c = _mk(capacity=1024, ways=2)
        c.access_lines([0, 8])     # set 0 holds {8, 0}
        c.access_lines([0])        # touch 0 -> MRU
        missed = c.access_lines([16])  # evicts 8 (LRU)
        assert list(missed) == [16]
        assert list(c.access_lines([0])) == []      # still resident
        assert list(c.access_lines([8])) == [8]     # was evicted

    def test_stats_conserved(self):
        c = _mk()
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 100, size=5000).astype(np.int64)
        c.access_lines(stream)
        assert c.stats.hits + c.stats.misses == c.stats.accesses == 5000

    @given(lines_st)
    def test_misses_bounded_by_distinct_lines_when_fits(self, lines):
        # a cache bigger than the footprint only takes cold misses
        c = Cache(CacheConfig("T", 256 * 64, line_bytes=64, ways=256))
        missed = c.access_lines(lines)
        assert len(missed) == len(np.unique(lines))

    @given(lines_st)
    def test_lru_inclusion_property(self, lines):
        """More ways (same sets) never increases LRU misses (stack property)."""
        m2 = _mk(capacity=64 * 4 * 2, ways=2).access_lines(lines)
        m4 = _mk(capacity=64 * 4 * 4, ways=4).access_lines(lines)
        assert len(m4) <= len(m2)

    def test_reset(self):
        c = _mk()
        c.access_lines([1, 2, 3])
        c.reset()
        assert c.stats.accesses == 0
        assert c.resident_lines() == set()

    def test_resident_lines(self):
        c = _mk(capacity=1024, ways=2)
        c.access_lines([0, 1, 2])
        assert c.resident_lines() == {0, 1, 2}

    def test_empty_batch(self):
        c = _mk()
        out = c.access_lines(np.empty(0, dtype=np.int64))
        assert out.size == 0
        assert c.stats.accesses == 0


class TestFIFOBehaviour:
    def test_fifo_ignores_recency(self):
        # set 0 lines: 0, 8, 16 (8 sets, 2 ways)
        c = _mk(capacity=1024, ways=2, replacement="fifo")
        c.access_lines([0, 8])
        c.access_lines([0, 0, 0])          # hits do not refresh FIFO age
        missed = c.access_lines([16])      # evicts 0 (oldest insertion)
        assert list(missed) == [16]
        assert c.resident_lines() == {8, 16}
        assert list(c.access_lines([0])) == [0]   # 0 was evicted despite hits

    def test_lru_differs_from_fifo_on_this_pattern(self):
        pattern = [0, 8, 0, 16, 0]
        lru_missed = _mk(ways=2).access_lines(pattern)
        fifo_missed = _mk(ways=2, replacement="fifo").access_lines(pattern)
        # LRU keeps the hot line 0; FIFO evicts it
        assert len(fifo_missed) > len(lru_missed)


class TestPLRUBehaviour:
    def test_hits_on_repeats(self):
        c = _mk(capacity=64 * 4 * 4, ways=4, replacement="plru")
        c.access_lines([0, 4, 8, 12])
        missed = c.access_lines([0, 4, 8, 12])
        assert len(missed) == 0

    def test_fills_all_ways_before_evicting(self):
        # 1 set, 4 ways: first 4 distinct lines must all be resident
        c = Cache(CacheConfig("T", 64 * 4, line_bytes=64, ways=4,
                              replacement="plru"))
        c.access_lines([0, 1, 2, 3])
        assert len(c.access_lines([0, 1, 2, 3])) <= 1  # PLRU may not be perfect LRU
        assert c.resident_lines() >= {1, 2, 3} or c.resident_lines() >= {0, 2, 3}

    def test_stats_conserved(self, rng):
        c = _mk(capacity=64 * 8 * 4, ways=4, replacement="plru")
        stream = rng.integers(0, 64, size=3000).astype(np.int64)
        missed = c.access_lines(stream)
        assert c.stats.misses == len(missed)
        assert c.stats.hits + c.stats.misses == 3000

    def test_single_line_working_set_always_hits(self):
        c = _mk(capacity=64 * 2 * 4, ways=4, replacement="plru")
        missed = c.access_lines([5] * 100)
        assert len(missed) == 1


class TestRandomBehaviour:
    def test_deterministic_with_seed(self, rng):
        stream = rng.integers(0, 64, size=2000).astype(np.int64)
        a = Cache(CacheConfig("T", 64 * 4 * 2, ways=2, replacement="random"),
                  seed=9).access_lines(stream)
        b = Cache(CacheConfig("T", 64 * 4 * 2, ways=2, replacement="random"),
                  seed=9).access_lines(stream)
        assert np.array_equal(a, b)

    def test_fills_before_evicting(self):
        c = Cache(CacheConfig("T", 64 * 4, ways=4, replacement="random"))
        c.access_lines([0, 1, 2, 3])
        assert c.resident_lines() == {0, 1, 2, 3}


class TestDirectMapped:
    @given(lines_st)
    def test_matches_one_way_lru(self, lines):
        direct = Cache(CacheConfig("T", 64 * 16, ways=1, replacement="direct"))
        lru = Cache(CacheConfig("T", 64 * 16, ways=1, replacement="lru"))
        md = direct.access_lines(lines)
        ml = lru.access_lines(lines)
        assert np.array_equal(md, ml)
        assert direct.stats.misses == lru.stats.misses

    @given(st.lists(lines_st, min_size=1, max_size=5))
    def test_state_persists_across_batches(self, batches):
        direct = Cache(CacheConfig("T", 64 * 16, ways=1, replacement="direct"))
        lru = Cache(CacheConfig("T", 64 * 16, ways=1, replacement="lru"))
        for batch in batches:
            assert np.array_equal(direct.access_lines(batch),
                                  lru.access_lines(batch))

    def test_resident_lines(self):
        c = Cache(CacheConfig("T", 64 * 4, ways=1, replacement="direct"))
        c.access_lines([0, 1, 2, 3, 4])  # 4 evicts 0 (same set)
        assert c.resident_lines() == {1, 2, 3, 4}


class TestChunking:
    @pytest.mark.parametrize("policy", ["lru", "fifo", "plru", "random"])
    def test_chunking_invariance(self, policy):
        """Splitting one stream into arbitrary batches must not change
        the aggregate stats (the engine's quantum does exactly this)."""
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 2048, size=5000).astype(np.int64)
        cfg = CacheConfig("T", 64 * 4 * 32, ways=4, replacement=policy)
        whole = Cache(cfg, seed=3)
        whole.access_lines(lines)
        chunked = Cache(cfg, seed=3)
        pos = 0
        while pos < lines.size:
            step = int(rng.integers(1, 700))
            chunked.access_lines(lines[pos:pos + step])
            pos += step
        assert whole.stats == chunked.stats


class TestRandomVictimHash:
    def test_depends_only_on_eviction_history(self):
        """Victim choice is a function of (seed, set, ordinal) — feeding
        extra traffic to *other* sets must not perturb a set's victims."""
        cfg = CacheConfig("T", 64 * 2 * 16, ways=2, replacement="random")
        thrash = (np.arange(30, dtype=np.int64) % 3) * 16  # set 0 only
        lone = Cache(cfg, seed=9)
        lone_missed = lone.access_lines(thrash)
        noisy = Cache(cfg, seed=9)
        noisy.access_lines(np.arange(1, 16, dtype=np.int64))  # other sets
        noisy_missed = noisy.access_lines(thrash)
        np.testing.assert_array_equal(lone_missed, noisy_missed)

    def test_seed_changes_victims(self):
        cfg = CacheConfig("T", 64 * 2 * 4, ways=2, replacement="random")
        stream = (np.arange(400, dtype=np.int64) % 5) * 4
        a = Cache(cfg, seed=0)
        b = Cache(cfg, seed=1)
        a.track_evictions = b.track_evictions = True
        a.access_lines(stream)
        b.access_lines(stream)
        assert a.last_evicted != b.last_evicted


class TestEvictionCounter:
    def test_cold_fills_are_not_evictions(self):
        cfg = CacheConfig("T", 64 * 4 * 4, ways=4)
        cache = Cache(cfg)
        cache.access_lines(np.arange(16, dtype=np.int64))  # exactly fills
        assert cache.stats.misses == 16
        assert cache.stats.evictions == 0
        cache.access_lines(np.arange(16, 20, dtype=np.int64))  # one per set
        assert cache.stats.evictions == 4

    def test_direct_mapped_evictions(self):
        cfg = CacheConfig("T", 64 * 8, ways=1, replacement="direct")
        cache = Cache(cfg)
        cache.access_lines(np.arange(8, dtype=np.int64))
        assert cache.stats.evictions == 0
        cache.access_lines(np.arange(8, 16, dtype=np.int64))
        assert cache.stats.evictions == 8

    def test_merge_sums_evictions(self):
        a = CacheStats(accesses=4, hits=1, misses=3, evictions=2)
        b = CacheStats(accesses=6, hits=2, misses=4, evictions=1)
        assert a.merge(b).evictions == 3
