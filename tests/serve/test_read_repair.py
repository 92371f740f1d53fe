"""Property test: read-repair is idempotent and convergent.

The serving tier's repair promise, stated as a Hypothesis property.
Take *any* sequence of per-replica damage (bit rot, truncation,
garbage overwrite, sidecar tampering, a copy deleted with its sidecar —
including every replica of a segment at once), interleaved with plain
reads, which make the store keep a copy's verified record so that
damage can land after the record is kept.  Then

* every interleaved read returns the original bytes, and
* once the next process to open the store has routed one read through
  each replica:

  - every replica of every segment verifies against its sidecar,
  - all replicas of a segment carry byte-identical payloads under one
    recorded digest (convergent),
  - the served volume equals the original bytes (repair never invents
    data), and
  - repeating the identical reads performs zero further repairs and
    zero rebuilds (idempotent — the first pass reached the fixpoint).

A reopened store models the next process: a sidecar rotted after its
copy's record was kept is invisible to reads in the same process (the
data still matches the record and is still hashed on every read); the
next process, or the cluster scrubber, catches it.  This is the
single-store twin of the cluster scrubber's guarantee (docs/SERVING.md
§ Elastic sharding): read-repair fixes whatever the read path
*encounters*; the scrubber exists for copies no read visits.
"""

from __future__ import annotations

import glob
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.artifacts import (
    read_sidecar,
    sidecar_path,
    verify_artifact,
)
from repro.serve.cluster import ShardCluster
from repro.serve.store import ChunkStore

SHAPE = (8, 8, 8)
CHUNK = 4
CHUNKS_PER_SEGMENT = 2   # 8 chunks -> 4 segments
REPLICAS = 2
SHARDS = 3

KINDS = ("flip", "truncate", "garbage", "grow", "directory", "sidecar",
         "missing")

#: (segment, replica, corruption kind or "read", salt byte)
_OP = st.tuples(st.integers(0, 3), st.integers(0, REPLICAS - 1),
                st.sampled_from(KINDS + ("read",)), st.integers(0, 255))


def _dense() -> np.ndarray:
    return np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)


def _create(path: str) -> ChunkStore:
    return ChunkStore.create(
        path, _dense(), order="morton", chunk=CHUNK,
        chunks_per_segment=CHUNKS_PER_SEGMENT, replicas=REPLICAS,
        shards=SHARDS)


def _corrupt(store: ChunkStore, seg: int, replica: int, kind: str,
             salt: int) -> None:
    """Damage one replica in place, ``kind``-style (a no-op on a copy
    that is already gone)."""
    path = store._replica_path(seg, replica)
    if not os.path.isfile(path):
        return
    if kind == "directory":
        os.remove(path)
        os.mkdir(path)
        return
    if kind == "missing":
        os.remove(path)
        if os.path.exists(sidecar_path(path)):
            os.remove(sidecar_path(path))
        return
    if kind == "sidecar":
        with open(sidecar_path(path), "w",  # repro: noqa[RPC401]
                  encoding="utf-8") as fh:
            fh.write("not an integrity record")
        return
    with open(path, "rb") as fh:
        data = fh.read()
    if kind == "flip":
        i = salt % len(data)
        data = data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1:]
    elif kind == "truncate":
        data = data[:len(data) // 2]
    elif kind == "grow":  # the recorded bytes, then more
        data = data + bytes([salt]) * (salt + 1)
    else:  # garbage: right length, wrong bytes
        data = bytes((salt + j) % 256 for j in range(len(data)))
    with open(path, "wb") as fh:  # repro: noqa[RPC401] (injecting rot)
        fh.write(data)


def _read_from(store: ChunkStore, seg: int, first: int) -> np.ndarray:
    """One read of ``seg`` that tries replica ``first`` first."""
    shards = [store.shard_of_segment(seg, r) for r in range(store.replicas)]
    return store.read_segment(seg, locations=shards[first:] + shards[:first])


def _read_through_every_replica(store: ChunkStore, segments) -> None:
    """Route one read through each replica-first ordering.

    Read-repair only fixes copies the read path *encounters* before a
    verified success; rotating the location list makes every replica
    the first attempt once, so any surviving corruption is visited.
    """
    for seg in segments:
        for first in range(store.replicas):
            _read_from(store, seg, first)


class TestReadRepairProperties:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(_OP, min_size=1, max_size=8))
    def test_convergent_and_idempotent(self, ops):
        tmp = tempfile.mkdtemp(prefix="repro-read-repair-")
        try:
            dense = _dense()
            store = _create(os.path.join(tmp, "store"))
            want = {seg: store._segment_payload(dense, seg)
                    for seg in range(store.n_segments)}
            for seg, replica, kind, salt in ops:
                if kind == "read":
                    got = _read_from(store, seg, replica)
                    assert got.tobytes() == want[seg]
                else:
                    _corrupt(store, seg, replica, kind, salt)

            # the next process: no kept records, every sidecar read
            store = ChunkStore.open(store.path, origin=dense)
            touched = sorted({seg for seg, _, _, _ in ops})
            _read_through_every_replica(store, touched)

            # convergent: every replica of every segment verifies, and
            # the replicas of a segment agree on one recorded digest
            for seg in range(store.n_segments):
                digests = set()
                payloads = set()
                for r in range(store.replicas):
                    path = store._replica_path(seg, r)
                    verify_artifact(path, quarantine=False)
                    digests.add(read_sidecar(path)["sha256"])
                    with open(path, "rb") as fh:
                        payloads.add(fh.read())
                assert len(digests) == 1, \
                    f"segment {seg} replicas diverge: {digests}"
                assert len(payloads) == 1
            # ... and repair never invented bytes
            assert np.array_equal(store.read_bbox((0, 0, 0), SHAPE),
                                  dense)

            # idempotent: the same reads again are pure cache-less
            # reads — no repair, no rebuild, nothing left to fix
            repairs = store.read_repairs
            rebuilds = store.segments_rebuilt
            _read_through_every_replica(store, touched)
            assert store.read_repairs == repairs
            assert store.segments_rebuilt == rebuilds
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


class TestKeptRecords:
    """Damage that lands after a copy's record is kept."""

    def test_flip_after_first_read_is_caught_on_next_read(self, tmp_path):
        store = _create(str(tmp_path / "store"))
        seg = 1
        want = store.read_segment(seg).copy()  # keeps the primary's record
        primary = store._replica_path(seg, 0)
        _corrupt(store, seg, 0, "flip", 7)
        assert np.array_equal(store.read_segment(seg), want)
        assert store.failovers == 1
        assert store.read_repairs == 1
        assert store.segments_rebuilt == 0
        assert glob.glob(primary + ".corrupt*")  # quarantined aside
        verify_artifact(primary, quarantine=False)
        # the repaired copy is read again, first, and serves right
        assert np.array_equal(store.read_segment(seg), want)
        assert store.failovers == 1

    @pytest.mark.parametrize("kind", ["grow", "truncate", "directory"])
    def test_wrong_size_or_kind_after_first_read_is_caught(self, tmp_path,
                                                           kind):
        store = _create(str(tmp_path / "store"))
        seg = 2
        want = store.read_segment(seg).copy()  # keeps the primary's record
        primary = store._replica_path(seg, 0)
        _corrupt(store, seg, 0, kind, 200)
        assert np.array_equal(store.read_segment(seg), want)
        assert (store.failovers, store.read_repairs) == (1, 1)
        assert store.segments_rebuilt == 0
        assert glob.glob(primary + ".corrupt*")  # quarantined aside
        verify_artifact(primary, quarantine=False)

    def test_sidecar_rot_after_first_read_is_caught_by_scrub(self,
                                                             tmp_path):
        store = _create(str(tmp_path / "store"))
        cluster = ShardCluster(store, cache="lru:capacity=4")
        seg = 1
        want = store.read_segment(seg).copy()  # keeps the primary's record
        primary = store._replica_path(seg, 0)
        _corrupt(store, seg, 0, "sidecar", 0)
        # reads stay correct: the data still matches the kept record
        assert np.array_equal(store.read_segment(seg), want)
        assert store.failovers == 0
        # one scrub lap reads every sidecar, and repairs the rotted one
        cluster.scrubber.run(len(cluster.map.placements()))
        assert cluster.scrubber.repaired == 1
        verify_artifact(primary, quarantine=False)
        assert np.array_equal(store.read_segment(seg), want)
        assert store.failovers == 0
