"""Chaos tests: corrupt segments must quarantine and rebuild, never lie."""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.resilience import artifacts
from repro.resilience.artifacts import ArtifactIntegrityError
from repro.serve import BBoxQuery, ChunkStore, VolumeServer

SHAPE = (16, 16, 16)


@pytest.fixture()
def dense():
    rng = np.random.default_rng(21)
    return rng.random(SHAPE).astype(np.float32)


def corrupt(path: str) -> None:
    with open(path, "r+b") as fh:  # repro: noqa[RPC401]
        fh.seek(17)
        byte = fh.read(1)
        fh.seek(17)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestCorruptSegment:
    def test_quarantine_and_rebuild_with_origin(self, tmp_path, dense):
        store = ChunkStore.create(os.path.join(tmp_path, "s"), dense,
                                  chunk=4, chunks_per_segment=2)
        seg_path = store._replica_path(1, 0)
        corrupt(seg_path)
        got = store.read_segment(1)          # transparently repaired
        assert store.segments_rebuilt == 1
        # the evidence was kept, and the rewritten artifact is clean
        assert glob.glob(seg_path + ".corrupt*")
        assert np.array_equal(store.read_segment(1), got)
        # full-volume read is still byte-exact
        assert np.array_equal(store.read_bbox((0, 0, 0), SHAPE), dense)

    def test_served_bytes_correct_after_corruption(self, tmp_path, dense):
        store = ChunkStore.create(os.path.join(tmp_path, "s"), dense,
                                  chunk=4, chunks_per_segment=2)
        for seg in (0, 3, store.n_segments - 1):
            corrupt(store._replica_path(seg, 0))
        server = VolumeServer(store, cache="lru:capacity=4")
        res = server.serve(BBoxQuery((0, 0, 0), SHAPE))
        assert np.array_equal(res.data, dense)
        assert store.segments_rebuilt == 3

    def test_reopened_store_rebuilds_via_origin_callable(self, tmp_path,
                                                         dense):
        path = os.path.join(tmp_path, "s")
        ChunkStore.create(path, dense, chunk=4, chunks_per_segment=2)
        store = ChunkStore.open(path, origin=lambda: dense)
        corrupt(store._replica_path(2, 0))
        assert np.array_equal(store.read_bbox((0, 0, 0), SHAPE), dense)
        assert store.segments_rebuilt == 1

    def test_no_origin_raises_instead_of_serving_wrong_bytes(self, tmp_path,
                                                             dense):
        path = os.path.join(tmp_path, "s")
        ChunkStore.create(path, dense, chunk=4, chunks_per_segment=2)
        store = ChunkStore.open(path)        # no origin attached
        corrupt(store._replica_path(0, 0))
        with pytest.raises(RuntimeError, match="without an origin"):
            store.read_segment(0)
        # the bad artifact was still quarantined by the artifact layer
        assert glob.glob(store._replica_path(0, 0) + ".corrupt*")

    def test_origin_shape_mismatch_rejected(self, tmp_path, dense):
        path = os.path.join(tmp_path, "s")
        ChunkStore.create(path, dense, chunk=4, chunks_per_segment=2)
        store = ChunkStore.open(path, origin=np.zeros((4, 4, 4),
                                                      dtype=np.float32))
        corrupt(store._replica_path(0, 0))
        with pytest.raises(ValueError, match="origin shape"):
            store.read_segment(0)

    def test_missing_sidecar_strictness(self, tmp_path, dense):
        # deleting the sidecar alone must not break reads (artifact layer
        # treats sidecar-less files as legacy), but corrupting the data
        # after removing the sidecar surfaces as a size/shape failure,
        # never as wrong voxels
        path = os.path.join(tmp_path, "s")
        store = ChunkStore.create(path, dense, chunk=4,
                                  chunks_per_segment=2)
        seg_path = store._replica_path(1, 0)
        os.remove(seg_path + ".integrity.json")
        assert np.array_equal(store.read_bbox((0, 0, 0), SHAPE), dense)

    def test_sidecarless_read_looks_up_the_sidecar_once(self, tmp_path,
                                                        dense, monkeypatch):
        # a copy without a sidecar is read unverified: one failed
        # sidecar open and one data open per read, never a second
        # sidecar lookup inside the artifact layer
        path = os.path.join(tmp_path, "s")
        store = ChunkStore.create(path, dense, chunk=4,
                                  chunks_per_segment=2)
        seg_path = store._replica_path(1, 0)
        os.remove(seg_path + ".integrity.json")
        opened = []
        real_open = os.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(artifacts.os, "open", counting_open)
        first, second = store.read_segment(1), store.read_segment(1)
        assert np.array_equal(first, second)
        assert opened.count(seg_path + ".integrity.json") == 2
        assert opened.count(seg_path) == 2
        assert len(opened) == 4

    def test_truncated_sidecarless_segment_rebuilds(self, tmp_path, dense):
        path = os.path.join(tmp_path, "s")
        store = ChunkStore.create(path, dense, chunk=4,
                                  chunks_per_segment=2)
        seg_path = store._replica_path(1, 0)
        os.remove(seg_path + ".integrity.json")
        with open(seg_path, "rb") as fh:
            data = fh.read()
        with open(seg_path, "wb") as fh:  # repro: noqa[RPC401]
            fh.write(data[:-7])
        assert np.array_equal(store.read_segment(1),
                              ChunkStore.open(path,
                                              origin=dense).read_segment(1))
        # rebuilt from origin, evidence quarantined
        assert store.segments_rebuilt == 1


class TestMetaCorruption:
    def test_corrupt_meta_never_opens(self, tmp_path, dense):
        path = os.path.join(tmp_path, "s")
        ChunkStore.create(path, dense, chunk=4, chunks_per_segment=2)
        corrupt_path = os.path.join(path, "meta.json")
        with open(corrupt_path, "a", encoding="utf-8") as fh:  # repro: noqa[RPC401]
            fh.write("x")
        with pytest.raises(ArtifactIntegrityError):
            ChunkStore.open(path)
