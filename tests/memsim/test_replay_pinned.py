"""Pinned replay: the per-access cache loop's outcome on fixed streams.

Each cache case feeds seeded random, same-set-thrash and repeat streams
through one cache in 256-line batches, with eviction tracking on and
prefetch installs and invalidations interleaved.  The engine cases run
two seeded multi-thread traces through the scale-64 Ivy Bridge model
with ``backend="scalar"``, once with L2/L3 stream prefetchers and once
with an inclusive L3.

The expected values were recorded while the simulator also had a
batched numpy replay for caches of 64 sets and more; both replays
agreed on every value below.  Digests are the first 16 hex digits of
the SHA-256 of the int64 bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import default_ivybridge
from repro.memsim import (
    Cache,
    CacheConfig,
    PrefetchConfig,
    SimulationEngine,
    ThreadWork,
    TraceChunk,
)

WAYS = 4
BATCH = 256
SEED = 7

FIELDS = ("stats", "missed", "evicted", "returned", "resident")

#: (policy, n_sets) -> (accesses, hits, misses, evictions) and digests
#: of the missed lines, the sorted evicted lines, the values returned by
#: ``install_lines``/``invalidate`` and the sorted final residents
EXPECTED_CACHE = {
    ("lru", 1): (
        (6500, 1623, 4877, 4858), "adc67d342520a23e", "0133b8ca8f15479d",
        "77b407f07d9ee325", "4f1028e920925b4a"),
    ("lru", 16): (
        (6500, 1636, 4864, 4737), "687a9dd8d71eb493", "ab73743c8b430278",
        "4c4e305ff35012c1", "d1a55fab21ecb5bb"),
    ("lru", 256): (
        (6500, 1525, 4975, 3857), "33f88143284dc203", "f7789acc54f44f8a",
        "0d802553b3b400f7", "9d784663a567338f"),
    ("fifo", 1): (
        (6500, 1621, 4879, 4861), "53ebe3bb036699ed", "74984763e8fc2f9b",
        "a1bc05d80bc32d2d", "4f1028e920925b4a"),
    ("fifo", 16): (
        (6500, 2054, 4446, 4321), "c0a3afbf7e1c863c", "4aa2858b051e00e0",
        "ab6c3bd19bb15d51", "60211ffae79d00de"),
    ("fifo", 256): (
        (6500, 1943, 4557, 3439), "aa6cda2ef67029fe", "263f46361e83ce31",
        "597d7d3ed793e607", "1576e435b52dbd31"),
    ("plru", 1): (
        (6500, 1623, 4877, 4857), "7aab32fffce71846", "0cf5c22e78aef37f",
        "7a35fd8a9cb04e01", "4f1028e920925b4a"),
    ("plru", 16): (
        (6500, 1635, 4865, 4736), "f6fba2d2ad1f42a1", "5070737a65817b2a",
        "2ef9008bbe53ce08", "6dab87b8774e239d"),
    ("plru", 256): (
        (6500, 1523, 4977, 3895), "adba60912b8765b6", "f0a5e0f7129840a3",
        "934480817669ac28", "fc42b33ba4ede226"),
    ("random", 1): (
        (6500, 2842, 3658, 3640), "62402db4e9ec3a1a", "bb64557848bdcd01",
        "fa5fe7b3d051a4a7", "2b41b81ade69078b"),
    ("random", 16): (
        (6500, 2837, 3663, 3542), "b5077832c5c2e28c", "651b05b41b5a1995",
        "1bf64787be68e3f1", "2200261d68152f9e"),
    ("random", 256): (
        (6500, 2696, 3804, 2696), "b3e350ebad9d0b88", "2f1e20329f22ae97",
        "71ef3c014e533fdb", "7cb37de87569812f"),
}

EXPECTED_ENGINE = {
    "prefetch": {
        "counters": {"PAPI_L1_TCA": 66300.0, "PAPI_L1_TCM": 38651.0,
                     "PAPI_L2_TCA": 38651.0, "PAPI_L2_TCM": 14296.0,
                     "PAPI_L3_TCA": 14296.0, "PAPI_L3_TCM": 13698.0,
                     "PAPI_TLB_DM": 8487.0},
        "runtime_seconds": 0.00022147479166666667,
    },
    "inclusive": {
        "counters": {"PAPI_L1_TCA": 66300.0, "PAPI_L1_TCM": 38691.0,
                     "PAPI_L2_TCA": 38691.0, "PAPI_L2_TCM": 38309.0,
                     "PAPI_L3_TCA": 38309.0, "PAPI_L3_TCM": 37711.0,
                     "PAPI_TLB_DM": 8487.0},
        "runtime_seconds": 0.00037314916666666666,
    },
}


def _digest(values) -> str:
    data = np.asarray(values, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _stream(n_sets: int, rng) -> np.ndarray:
    span = 8 * n_sets * WAYS
    random = rng.integers(0, span, size=3000)
    # WAYS+1 distinct lines of set 0, round-robin: maximum churn
    thrash = (np.arange(2000) % (WAYS + 1)) * n_sets
    repeat = np.repeat(rng.integers(0, span, size=300), 5)
    return np.concatenate([random, thrash, repeat]).astype(np.int64)


def replay_case(policy: str, n_sets: int) -> dict:
    """Replay one pinned cache case; its observable outcome."""
    cfg = CacheConfig("T", 64 * WAYS * n_sets, ways=WAYS,
                      replacement=policy)
    cache = Cache(cfg, seed=SEED)
    cache.track_evictions = True
    rng = np.random.default_rng([SEED, n_sets])
    lines = _stream(n_sets, rng)
    span = 8 * n_sets * WAYS
    missed, evicted, returned = [], [], []
    for i, pos in enumerate(range(0, lines.size, BATCH)):
        batch = lines[pos:pos + BATCH]
        missed.append(cache.access_lines(batch))
        evicted.extend(cache.last_evicted)
        if i % 3 == 2:
            # half re-touch the batch, half are likely new
            installs = np.concatenate([rng.choice(batch, 16),
                                       rng.integers(0, span, size=16)])
            returned.append(cache.install_lines(installs))
            returned.append(cache.invalidate(rng.choice(batch, 24)))
    s = cache.stats
    return {
        "stats": (s.accesses, s.hits, s.misses, s.evictions),
        "missed": _digest(np.concatenate(missed)),
        "evicted": _digest(sorted(evicted)),
        "returned": _digest(returned),
        "resident": _digest(sorted(cache.resident_lines())),
    }


def _platform(kind: str):
    spec = default_ivybridge(64)
    if kind == "inclusive":
        return replace(spec, inclusive=True, name=spec.name + "-incl")
    levels = tuple(replace(lv, prefetch=PrefetchConfig(degree=4))
                   if lv.cache.name in ("L2", "L3") else lv
                   for lv in spec.levels)
    return replace(spec, levels=levels, name=spec.name + "-pf")


def _works():
    """Three threads, two sharing socket 0's L3.

    Each thread first mixes a random walk with jumps that the threads
    share, then alternates eight hot lines with a sequential scan: the
    scan trains the prefetchers and, in the inclusive L3, ages the hot
    lines out while they still hit in L1.
    """
    rng = np.random.default_rng(SEED)
    works = []
    for tid, core in enumerate((0, 1, 12)):
        base = 1_000_000 * (tid + 1)
        mixed = base + np.abs(np.cumsum(rng.integers(-2, 4, size=6000)))
        mixed[::2] = rng.integers(0, 1 << 15, size=3000)
        hot = base - 1 - 257 * np.arange(8)
        scan = base + 500_000 + np.arange(8000)
        pairs = np.stack([np.resize(hot, scan.size), scan], axis=1)
        lines = np.concatenate([mixed, pairs.ravel()]).astype(np.int64)
        works.append(ThreadWork(tid, core, TraceChunk(
            lines=lines, collapsed_hits=100 * tid, n_ops=30000)))
    return works


def engine_case(kind: str) -> dict:
    """Replay one pinned engine case; its counters and runtime."""
    engine = SimulationEngine(_platform(kind), seed=SEED, backend="scalar")
    result = engine.run(_works())
    return {"counters": result.counters,
            "runtime_seconds": result.runtime_seconds}


@pytest.mark.parametrize("n_sets", [1, 16, 256])
@pytest.mark.parametrize("policy", ["lru", "fifo", "plru", "random"])
def test_cache_replay_matches_pinned_outcome(policy, n_sets):
    expected = dict(zip(FIELDS, EXPECTED_CACHE[(policy, n_sets)]))
    assert replay_case(policy, n_sets) == expected


@pytest.mark.parametrize("kind", ["prefetch", "inclusive"])
def test_engine_replay_matches_pinned_outcome(kind):
    assert engine_case(kind) == EXPECTED_ENGINE[kind]
