"""Tests for the serve caches and the memsim cross-check."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    ChunkStore,
    LRUCache,
    NoCache,
    VolumeServer,
    assert_cache_consistent,
    cache_crosscheck,
    generate_queries,
    make_cache,
)

SHAPE = (24, 24, 24)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    rng = np.random.default_rng(0)
    dense = rng.random(SHAPE).astype(np.float32)
    path = os.path.join(tmp_path_factory.mktemp("cache"), "store")
    # small segments + small cache below => real evictions
    return ChunkStore.create(path, dense, order="morton", chunk=4,
                             chunks_per_segment=2)


class TestMakeCache:
    def test_lru_spec(self):
        cache = make_cache("lru:capacity=7")
        assert isinstance(cache, LRUCache)
        assert cache.capacity == 7

    def test_lru_default_capacity(self):
        assert make_cache("lru").capacity == 64

    def test_none_specs(self):
        assert isinstance(make_cache("none"), NoCache)
        assert isinstance(make_cache(None), NoCache)

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="unknown cache"):
            make_cache("arc:capacity=4")
        with pytest.raises(ValueError, match="unknown kwargs"):
            make_cache("lru:ways=8")
        with pytest.raises(ValueError, match="no kwargs"):
            make_cache("none:capacity=4")
        with pytest.raises(ValueError, match="positive"):
            make_cache("lru:capacity=0")


class TestLRUSemantics:
    def test_hit_miss_evict(self):
        cache = LRUCache(2)
        loads = []
        load = lambda k: loads.append(k) or np.array([k])  # noqa: E731
        cache.get(1, load)
        cache.get(2, load)
        cache.get(1, load)          # hit, refreshes 1
        cache.get(3, load)          # evicts 2 (LRU)
        cache.get(2, load)          # miss again
        assert loads == [1, 2, 3, 2]
        assert cache.hits == 1
        assert cache.misses == 4
        assert cache.evictions == 2
        assert cache.access_log == [1, 2, 1, 3, 2]

    def test_counters_dict(self):
        cache = LRUCache(2)
        cache.get(5, lambda k: np.array([k]))
        c = cache.counters()
        assert c["accesses"] == 1 and c["misses"] == 1
        assert c["capacity"] == 2 and c["resident"] == 1


class TestRuns:
    """``get(key, load, n)`` counts as ``n`` back-to-back gets."""

    @settings(max_examples=100, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 4)),
                         max_size=30),
           capacity=st.integers(1, 4))
    def test_run_equals_repeated_gets(self, runs, capacity):
        run_loads, single_loads = [], []
        runs_cache, single_cache = LRUCache(capacity), LRUCache(capacity)
        for key, n in runs:
            runs_cache.get(key, lambda k: run_loads.append(k) or k, n)
            for _ in range(n):
                single_cache.get(key,
                                 lambda k: single_loads.append(k) or k)
        assert runs_cache.counters() == single_cache.counters()
        assert runs_cache.access_log == single_cache.access_log
        assert run_loads == single_loads
        assert list(runs_cache._slots) == list(single_cache._slots)

    def test_nocache_loads_once_per_access(self):
        cache, loads = NoCache(), []
        cache.get(3, lambda k: loads.append(k) or k, 4)
        assert loads == cache.access_log == [3, 3, 3, 3]
        assert (cache.accesses, cache.hits, cache.misses) == (4, 0, 4)

    @pytest.mark.parametrize("make", [lambda: LRUCache(2), NoCache],
                             ids=["lru", "none"])
    def test_failed_load_leaves_no_trace(self, make):
        cache = make()
        cache.get(1, lambda k: k, 2)
        before = (cache.counters(), list(cache.access_log))

        def broken(key):
            raise RuntimeError("read failed")

        with pytest.raises(RuntimeError):
            cache.get(2, broken, 3)
        assert (cache.counters(), cache.access_log) == before


class TestCrossCheck:
    """The tentpole invariant: server LRU == memsim, bit-for-bit."""

    @pytest.mark.parametrize("capacity", [1, 3, 8, 64])
    def test_bit_for_bit_at_capacity(self, store, capacity):
        server = VolumeServer(store, cache=f"lru:capacity={capacity}")
        queries = generate_queries(SHAPE, 40, seed=11)
        server.serve_session(queries, concurrency=4)
        check = assert_cache_consistent(server.cache)
        assert check.consistent
        assert check.accesses == len(server.cache.access_log)
        # both independent implementations, not just one:
        assert check.server_hits == check.stackdist_hits == check.machine_hits
        assert check.server_misses == check.stackdist_misses \
            == check.machine_misses

    def test_evictions_actually_happen(self, store):
        server = VolumeServer(store, cache="lru:capacity=3")
        server.serve_session(generate_queries(SHAPE, 30, seed=5))
        assert server.cache.evictions > 0
        assert_cache_consistent(server.cache)

    def test_nocache_crosscheck(self, store):
        server = VolumeServer(store, cache="none")
        server.serve_session(generate_queries(SHAPE, 10, seed=1))
        check = assert_cache_consistent(server.cache)
        assert check.server_hits == 0
        assert check.server_misses == check.accesses

    def test_broken_counters_are_caught(self, store):
        server = VolumeServer(store, cache="lru:capacity=4")
        server.serve_session(generate_queries(SHAPE, 10, seed=2))
        server.cache.hits += 1   # corrupt the bookkeeping
        server.cache.misses -= 1
        check = cache_crosscheck(server.cache)
        assert not check.consistent
        assert check.mismatches()
        with pytest.raises(AssertionError, match="disagree"):
            assert_cache_consistent(server.cache)

    def test_empty_stream(self):
        check = cache_crosscheck(LRUCache(4))
        assert check.consistent
        assert check.accesses == 0
