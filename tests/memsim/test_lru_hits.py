"""Edge cases of :func:`repro.memsim.stackdist.lru_hits`.

Two oracles: a brute-force LRU that keeps one recency list per set in
plain Python, and the scalar replay of :class:`repro.memsim.cache.Cache`.
Hit flags, fills and the replay's evictions must agree exactly.  The
cases sit where the pricing changes representation: key spans that
just fit or just miss 16 and 32 bits, negative line ids, set counts up
to 2**17, streams whose dropped repeats leave fewer accesses than
ways, and streams long enough to be priced a group of sets at a time.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import Cache, CacheConfig, lru_hits
from repro.memsim.stackdist import _GROUP_LINES


def brute_lru(lines, n_sets, ways):
    """Per-set LRU lists, one access at a time: (hits, fills)."""
    sets = defaultdict(OrderedDict)
    hits, fills = [], 0
    for line in lines:
        resident = sets[line & (n_sets - 1)]
        if line in resident:
            resident.move_to_end(line)
            hits.append(True)
            continue
        hits.append(False)
        if len(resident) < ways:
            fills += 1
        else:
            resident.popitem(last=False)
        resident[line] = None
    return np.array(hits, dtype=bool), fills


def assert_matches_oracles(lines, n_sets, ways):
    lines = np.asarray(lines, dtype=np.int64)
    hits, fills = lru_hits(lines, n_sets, ways)
    want_hits, want_fills = brute_lru(lines.tolist(), n_sets, ways)
    assert hits.dtype == bool and hits.shape == lines.shape
    assert np.array_equal(hits, want_hits)
    assert fills == want_fills
    cache = Cache(CacheConfig("L", n_sets * ways * 64, ways=ways))
    missed = cache.access_lines(lines)
    assert np.array_equal(lines[~hits], missed)
    assert missed.size - fills == cache.stats.evictions


def _spanning(low, span, n=400, seed=0):
    """A stream over a few lines whose span is exactly ``span``.

    Lines ``low`` and ``low + span`` alternate with a handful of lines
    in between; keys narrowed too far would fold the two ends together
    (a 16-bit key folds ``low`` and ``low + 2**16``).
    """
    rng = np.random.default_rng(seed)
    pool = np.array([low, low + span, low + 1, low + span - 1,
                     low + span // 2, low + span // 3], dtype=np.int64)
    stream = pool[rng.integers(0, pool.size, n)]
    stream[:4] = [low, low + span, low, low + span]
    return stream


SPANS = [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 32) - 1, 1 << 32,
         (1 << 32) + 1, 1 << 40]


class TestKeySpans:
    @pytest.mark.parametrize("span", SPANS)
    @pytest.mark.parametrize("low", [0, 7, -(1 << 20), (1 << 33) + 3])
    @pytest.mark.parametrize("n_sets,ways", [(1, 1), (1, 3), (2, 2), (16, 4)])
    def test_span_boundaries(self, span, low, n_sets, ways):
        assert_matches_oracles(_spanning(low, span), n_sets, ways)

    @pytest.mark.parametrize("span", [1 << 16, 1 << 32])
    def test_ends_that_fold_under_a_narrow_key_both_miss(self, span):
        # one way: the two ends evict each other on every access
        hits, fills = lru_hits([0, span] * 50, 1, 1)
        assert not hits.any() and fills == 1


class TestNegativeLines:
    @pytest.mark.parametrize("n_sets", [1, 2, 8, 256])
    @pytest.mark.parametrize("ways", [1, 2, 8])
    def test_lines_around_zero(self, n_sets, ways):
        rng = np.random.default_rng(n_sets * 31 + ways)
        assert_matches_oracles(rng.integers(-40, 40, 600), n_sets, ways)

    def test_large_negative_lines(self):
        rng = np.random.default_rng(11)
        base = np.array([-(1 << 62), -(1 << 40) - 5, -1, 0, 1 << 35])
        stream = base[rng.integers(0, base.size, 300)]
        for n_sets, ways in [(1, 2), (4, 1), (1 << 17, 2)]:
            assert_matches_oracles(stream, n_sets, ways)


class TestManySets:
    @pytest.mark.parametrize("n_sets", [1 << 8, 1 << 9, 1 << 16, 1 << 17])
    @pytest.mark.parametrize("ways", [1, 4])
    def test_set_counts_up_to_2_17(self, n_sets, ways):
        rng = np.random.default_rng(n_sets + ways)
        # lines spread over more sets than the cache has, plus a hot
        # pool that lands in a few sets and reuses them
        wide = rng.integers(0, 4 * n_sets, 500)
        hot = rng.integers(0, 6, 500) * n_sets + 3
        stream = np.where(rng.random(500) < 0.5, wide, hot)
        assert_matches_oracles(stream, n_sets, ways)


class TestRepeats:
    @pytest.mark.parametrize("stream", [
        [5] * 9,
        [1, 1, 2, 2, 1, 1],
        [3, 3, 3, 4, 4, 3, 3, 4],
        [0, 0, 16, 16, 0, 16, 0],
    ])
    @pytest.mark.parametrize("n_sets,ways", [(1, 8), (2, 4), (16, 8),
                                             (1, 1)])
    def test_fewer_accesses_than_ways_after_dropping(self, stream, n_sets,
                                                     ways):
        assert_matches_oracles(stream, n_sets, ways)

    def test_repeats_only_in_set_order(self):
        # no back-to-back repeat in time order, but line 0's accesses
        # are adjacent once set 1's accesses are sorted out of the way
        assert_matches_oracles([0, 1, 0, 3, 0, 5, 2, 0], 2, 1)


class TestGroupedPath:
    @pytest.mark.parametrize("n_sets,ways", [(2, 2), (4, 3), (16, 8),
                                             (256, 30)])
    def test_stream_longer_than_a_group(self, n_sets, ways):
        rng = np.random.default_rng(ways)
        n = 2 * _GROUP_LINES + 1000
        stream = rng.integers(0, 3 * n_sets * ways, n)
        stream[rng.random(n) < 0.2] = 7  # back-to-back repeats too
        assert_matches_oracles(stream, n_sets, ways)


@settings(max_examples=150, deadline=None)
@given(pool=st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                     max_size=12, unique=True),
       picks=st.lists(st.integers(0, 11), min_size=0, max_size=200),
       log_sets=st.integers(0, 17), ways=st.integers(1, 9))
def test_wide_random_pools(pool, picks, log_sets, ways):
    stream = [pool[p % len(pool)] for p in picks]
    assert_matches_oracles(stream, 1 << log_sets, ways)
