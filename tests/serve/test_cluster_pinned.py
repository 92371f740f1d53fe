"""A pinned cold-cluster session: the whole verified read path, replayed.

One seeded :class:`~repro.serve.cluster.ShardCluster` session through a
16-segment cache over 128 segments, with one shard killed and revived,
one scrub check per tick and five copies rotted at rest mid-session
(both copies of one segment, so it is rebuilt from the origin).  The
session therefore runs failover, read-repair, rebuild, rebalance copies
and scrub repair together.

The expected values were recorded when every verified segment read
opened the copy's sidecar.  Reads that check against a kept record
instead must reproduce them exactly: the same payloads, the same cache
access stream, the same repair decisions and the same number of
verified reads.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.data.synthetic import combustion_field
from repro.instrument import trace
from repro.resilience.faults import clear_faults
from repro.serve import (
    ChunkStore,
    ReliabilityConfig,
    ShardCluster,
    generate_queries,
)

SHAPE = (32, 32, 32)
N_QUERIES = 240
SCHEDULE = [(40, "kill", 1), (150, "join", 1)]
#: (event, segment, replica): that copy of the segment rots at rest
#: just before the event's query (both copies of one: a rebuild)
ROT = [(70, 0, 0), (70, 37, 0), (120, 90, 0), (120, 100, 0),
       (120, 100, 1)]

EXPECTED = {
    "payload_sha256":
        "381cef339a88377d67a4a22fd278b11f0a65ab063fe3737dd07276bbde7a04b3",
    "access_log_sha256":
        "6307d9f63d413b7d8f8d26edb4f4aa8b47b9e470a15724ac80a451ebf2b96ddf",
    "accesses": 20274,
    "failovers": 28,
    "read_repairs": 2,
    "rebuilds": 1,
    "copies_moved": 64,
    "scrub_checked": 240,
    "scrub_repaired": 1,
    "artifacts_verified": 7166,
}


def _counter(tracer: trace.Tracer, name: str) -> float:
    return tracer.counters.get(name, 0) + sum(
        rec["counters"].get(name, 0) for rec in tracer.records)


def _rot(path: str) -> None:
    with open(path, "r+b") as fh:  # repro: noqa[RPC401] (injecting rot)
        byte = fh.read(1)
        fh.seek(0)
        fh.write(bytes([byte[0] ^ 0xFF]))


def run_session(workdir: str) -> dict:
    """Serve the pinned session in ``workdir``; its observable outcome."""
    dense = combustion_field(SHAPE, seed=3)
    store = ChunkStore.create(os.path.join(workdir, "store"), dense,
                              order="hilbert", chunk=4,
                              chunks_per_segment=4, replicas=2, shards=4)
    cluster = ShardCluster(store, cache="lru:capacity=16",
                           reliability=ReliabilityConfig(),
                           scrub_budget=1, schedule=SCHEDULE)
    queries = generate_queries(SHAPE, N_QUERIES, seed=11)
    payloads = hashlib.sha256()
    tracer = trace.enable()
    try:
        for q in queries:
            for event, seg, replica in ROT:
                if event == cluster.events + 1:
                    shard = cluster.map.replicas_of(seg)[replica]
                    _rot(store.path_on_shard(seg, shard))
            cluster.tick()
            result = cluster.server.serve(q)
            assert result.ok, result
            payloads.update(repr(result.data.shape).encode())
            payloads.update(np.ascontiguousarray(result.data).tobytes())
        cluster.settle()
    finally:
        trace.disable()
    log = np.asarray(cluster.server.cache.access_log, dtype=np.int64)
    return {
        "payload_sha256": payloads.hexdigest(),
        "access_log_sha256": hashlib.sha256(log.tobytes()).hexdigest(),
        "accesses": int(log.size),
        "failovers": store.failovers,
        "read_repairs": store.read_repairs,
        "rebuilds": store.segments_rebuilt,
        "copies_moved": cluster.segments_moved,
        "scrub_checked": cluster.scrubber.checked,
        "scrub_repaired": cluster.scrubber.repaired,
        "artifacts_verified": int(
            _counter(tracer, "resilience.artifacts_verified")),
    }


@pytest.fixture(autouse=True)
def _no_faults():
    clear_faults()
    yield
    clear_faults()


def test_cold_cluster_session_matches_pinned_outcome(tmp_path):
    assert run_session(str(tmp_path)) == EXPECTED
