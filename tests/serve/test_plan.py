"""Differential tests for the vectorized query plan.

Every served query is checked against a model computed here, chunk by
chunk in plain Python: the payload against the dense volume, the cache
stream against one access per needed chunk in sorted file-slot order,
and each result's accounting and cache counters against an LRU replay
of that stream.  The stores cover padded edge chunks, non-cubic
chunks, 1 to 5 chunks per segment with short tail segments, and every
chunk order family.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    BBoxQuery,
    ChunkStore,
    RayQuery,
    SlabQuery,
    ViewportQuery,
    VolumeServer,
    assert_cache_consistent,
)
from repro.serve.server import _cross3

#: (shape, chunk, chunks_per_segment, order); every shape pads its
#: edge chunks, and all but two configurations end in a short segment
CONFIGS = [
    ((13, 10, 7), (4, 3, 5), 5, "hilbert"),
    ((9, 14, 11), (2, 4, 3), 3, "morton"),
    ((11, 7, 10), (3, 2, 4), 5, "array"),
    ((10, 9, 13), (4, 4, 3), 2, "tiled:brick=2"),
    ((7, 12, 9), (2, 5, 2), 1, "hilbert"),
    ((12, 11, 6), (5, 3, 3), 4, "morton"),
]

CACHES = ["none", "lru:capacity=1", "lru:capacity=3", "lru:capacity=8"]


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("plan")
    rng = np.random.default_rng(15)
    out = []
    for i, (shape, chunk, cps, order) in enumerate(CONFIGS):
        dense = rng.random(shape).astype(np.float32)
        store = ChunkStore.create(os.path.join(tmp, f"s{i}"), dense,
                                  order=order, chunk=chunk,
                                  chunks_per_segment=cps)
        out.append((store, dense))
    return out


def test_configs_cover_tails_and_padding(stores):
    tails = [store.n_chunks % store.chunks_per_segment
             for store, _ in stores]
    assert sum(1 for t in tails if t) == 4
    assert sorted({store.chunks_per_segment for store, _ in stores}) \
        == [1, 2, 3, 4, 5]
    for store, _ in stores:
        assert any(s % c for s, c in zip(store.shape, store.chunk_shape))


# -- the model ----------------------------------------------------------------

def box_chunks(store, lo, hi):
    """Chunk ids overlapping ``[lo, hi)``, by testing every chunk."""
    (gx, gy, gz), (cx, cy, cz) = store.grid_shape, store.chunk_shape
    return [i + gx * (j + gy * k)
            for k in range(gz) for j in range(gy) for i in range(gx)
            if i * cx < hi[0] and lo[0] < (i + 1) * cx
            and j * cy < hi[1] and lo[1] < (j + 1) * cy
            and k * cz < hi[2] and lo[2] < (k + 1) * cz]


def ray_points(q, shape):
    d = np.asarray(q.direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    t = np.arange(q.n_samples) * q.step
    pts = np.rint(np.asarray(q.origin) + t[:, None] * d).astype(np.int64)
    return pts[np.all((pts >= 0) & (pts < np.array(shape)), axis=1)]


def expected(store, dense, q):
    """(payload, needed chunk ids) for one query, computed directly."""
    if isinstance(q, RayQuery):
        pts = ray_points(q, store.shape)
        (gx, gy, _), (cx, cy, cz) = store.grid_shape, store.chunk_shape
        chunks = {int(x) // cx + gx * (int(y) // cy + gy * (int(z) // cz))
                  for x, y, z in pts}
        return dense[pts[:, 0], pts[:, 1], pts[:, 2]], sorted(chunks)
    if isinstance(q, SlabQuery):
        lo, hi = [0, 0, 0], list(store.shape)
        lo[q.axis], hi[q.axis] = q.start, q.stop
    else:
        lo, hi = q.lo, q.hi
    return (dense[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]],
            box_chunks(store, lo, hi))


def lru_replay(resident, capacity, stream):
    """Hits and misses of ``stream`` on an LRU list (MRU last)."""
    hits = 0
    for seg in stream:
        if seg in resident:
            hits += 1
            resident.remove(seg)
        elif capacity and len(resident) == capacity:
            resident.pop(0)
        if capacity:
            resident.append(seg)
    return hits, len(stream) - hits


# -- queries ------------------------------------------------------------------

@st.composite
def queries(draw, shape):
    kind = draw(st.sampled_from(["bbox", "slab", "ray"]))
    if kind == "bbox":
        lo = [draw(st.integers(0, s - 1)) for s in shape]
        hi = [draw(st.integers(a + 1, s)) for a, s in zip(lo, shape)]
        return BBoxQuery(tuple(lo), tuple(hi))
    if kind == "slab":
        axis = draw(st.integers(0, 2))
        start = draw(st.integers(0, shape[axis] - 1))
        stop = draw(st.integers(start + 1, min(shape[axis], start + 3)))
        return SlabQuery(axis, start, stop)
    origin = tuple(draw(st.floats(-3.0, s + 3.0)) for s in shape)
    direction = draw(st.tuples(*[st.integers(-3, 3)] * 3)
                     .filter(any))
    return RayQuery(origin, tuple(float(v) for v in direction),
                    n_samples=draw(st.integers(1, 40)),
                    step=draw(st.sampled_from([0.5, 0.9, 1.3])))


class TestPlanAgainstModel:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_session_matches_chunk_by_chunk_model(self, data, stores):
        store, dense = stores[data.draw(st.integers(0, len(stores) - 1),
                                        label="store")]
        cache = data.draw(st.sampled_from(CACHES), label="cache")
        session = data.draw(st.lists(queries(store.shape), min_size=1,
                                     max_size=4), label="queries")
        server = VolumeServer(store, cache=cache)
        capacity = server.cache.capacity
        resident: list = []
        log: list = []
        for q in session:
            res = server.serve(q)
            payload, chunks = expected(store, dense, q)
            assert np.array_equal(res.data, payload)
            stream = [slot // store.chunks_per_segment
                      for slot in sorted(int(store.slot_of[c])
                                         for c in chunks)]
            segs = set(stream)
            hits, misses = lru_replay(resident, capacity, stream)
            assert (res.chunks_needed, res.segments_touched,
                    res.bytes_touched, res.cache_hits,
                    res.cache_misses) == (
                len(chunks), len(segs),
                sum(store.segment_chunk_count(s) for s in segs)
                * store.chunk_bytes,
                hits, misses)
            log.extend(stream)
        assert server.cache.access_log == log
        assert_cache_consistent(server.cache)

    def test_uncached_server_reads_once_per_chunk(self, stores, monkeypatch):
        # cache="none" loads once per chunk access, so read counts,
        # failovers and read-fault indexes match the per-chunk stream
        store, _ = stores[1]
        reads = []
        real = store.read_segment

        def counted(seg, **kwargs):
            reads.append(seg)
            return real(seg, **kwargs)

        monkeypatch.setattr(store, "read_segment", counted)
        server = VolumeServer(store, cache="none")
        for q in [BBoxQuery((0, 0, 0), store.shape),
                  BBoxQuery((1, 3, 2), (8, 9, 10)),
                  SlabQuery(2, 4, 6),
                  RayQuery((0.5, 1.0, 2.0), (1.0, 1.0, 0.5), n_samples=30)]:
            reads.clear()
            res = server.serve(q)
            assert len(reads) == res.chunks_needed > 0
            assert reads == server.cache.access_log[-len(reads):]


# -- viewport boxes -----------------------------------------------------------

#: (viewpoint, zoom, pan) -> (lo, hi) on a (37, 29, 23) volume, recorded
#: when the eight corners were computed one at a time
VIEWPORT_BOXES = {
    (0, 1.0, (0.0, 0.0, 0.0)): ((7, 3, 0), (29, 25, 22)),
    (0, 2.5, (3.5, -7.25, 1.0)): ((16, 2, 7), (27, 12, 17)),
    (0, 0.6, (-40.0, 0.0, 12.5)): ((0, 0, 4), (1, 29, 23)),
    (1, 1.0, (0.0, 0.0, 0.0)): ((2, 0, 0), (34, 29, 22)),
    (1, 2.5, (3.5, -7.25, 1.0)): ((15, 0, 7), (28, 13, 17)),
    (1, 0.6, (-40.0, 0.0, 12.5)): ((0, 0, 4), (4, 29, 23)),
    (2, 2.5, (3.5, -7.25, 1.0)): ((17, 2, 7), (26, 12, 17)),
    (2, 0.6, (-40.0, 0.0, 12.5)): ((0, 0, 3), (3, 29, 23)),
    (3, 0.6, (-40.0, 0.0, 12.5)): ((0, 0, 2), (3, 29, 23)),
    (4, 0.6, (-40.0, 0.0, 12.5)): ((0, 0, 2), (1, 29, 23)),
    (6, 2.5, (3.5, -7.25, 1.0)): ((17, 2, 7), (26, 12, 17)),
    (7, 0.6, (-40.0, 0.0, 12.5)): ((0, 0, 4), (4, 29, 23)),
}

#: SHA-256 of the boxes of the grid in ``viewport_grid``, same recording
VIEWPORT_GRID_SHA256 = \
    "c53adfa43361856f3561a58d7f209439076b5c172339357d11223e81d6132bca"


def shape_server(tmp_path, shape):
    """A server over a one-chunk store: only its shape matters here."""
    path = os.path.join(tmp_path, "x".join(map(str, shape)))
    store = ChunkStore.create(path, np.zeros(shape, dtype=np.uint8),
                              order="array", chunk=shape,
                              chunks_per_segment=1)
    return VolumeServer(store)


def viewport_grid(tmp_path):
    boxes = []
    for shape in [(24, 24, 24), (37, 29, 23), (128, 128, 128)]:
        server = shape_server(tmp_path, shape)
        for n_vp in (8, 5):
            for vp in range(n_vp):
                for zoom in (0.3, 0.75, 1.0, 1.7, 4.0):
                    for pan in [(0.0, 0.0, 0.0), (1.25, -2.5, 0.75),
                                (-9.0, 13.0, -6.5), (60.0, -60.0, 30.0)]:
                        boxes.append(server._viewport_bbox(
                            ViewportQuery(vp, n_vp, zoom, pan)))
    return boxes


class TestViewportBoxesPinned:
    def test_recorded_boxes(self, tmp_path):
        server = shape_server(tmp_path, (37, 29, 23))
        for (vp, zoom, pan), box in VIEWPORT_BOXES.items():
            assert server._viewport_bbox(
                ViewportQuery(vp, 8, zoom, pan)) == box

    def test_recorded_grid(self, tmp_path):
        boxes = viewport_grid(tmp_path)
        assert len(boxes) == 780
        assert hashlib.sha256(repr(boxes).encode()).hexdigest() \
            == VIEWPORT_GRID_SHA256


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=6, max_size=6))
def test_cross_is_numpy_cross_bit_for_bit(values):
    a, b = values[:3], values[3:]
    assert np.array(_cross3(a, b)).tobytes() \
        == np.cross(np.array(a), np.array(b)).tobytes()
