"""Async volume server: bbox/slab/viewport/ray queries over a ChunkStore.

The paper's thesis is that a space-filling-curve layout turns spatial
locality into *address* locality.  A serving workload is where that
pays twice: the same placement that kept stencil neighborhoods on one
cache line keeps a viewport's chunks in one file segment, so a query
touches fewer segments (less I/O) and the hot-segment cache sees a
tighter reuse pattern (more hits).

:class:`VolumeServer` answers four query shapes:

* :class:`BBoxQuery` — a dense axis-aligned subvolume;
* :class:`SlabQuery` — a thickness-1..k slice along one axis (the
  degenerate bbox every viewer scrubs through);
* :class:`ViewportQuery` — the subvolume an orbiting camera sees,
  derived from the volrend kernel's :func:`~repro.kernels.camera.
  orbit_camera` so "viewpoint 3 of 8" means the same geometry here and
  in the renderer;
* :class:`RayQuery` — point samples along a ray (picking/probing).

Concurrency model: :meth:`query` is an ``asyncio`` coroutine; a
semaphore bounds in-flight queries and each query's *processing* is
synchronous inside one trace span (the tracer's span stack must not
interleave, so the awaits all happen before the span opens).  Cache
and store state are only mutated inside that synchronous section, so
no locks are needed and results are deterministic for a given arrival
order.

Resilience: constructed with a :class:`~repro.serve.reliability.
ReliabilityConfig`, the server adds per-query deadlines (checked
cooperatively between segment reads), retry-policy-driven re-attempts
(each with a fresh deadline), per-shard circuit breaking on the
store path, and bounded admission in
:meth:`session` — queries beyond ``max_inflight`` are *shed* with a
typed :class:`~repro.serve.reliability.QueryRejected`, never hung.
Without a config every failure raises, exactly as before.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from .fuzz import ScheduleFuzzer

import numpy as np

from ..instrument import trace as _trace
from ..kernels.camera import orbit_camera
from .cache import make_cache
from .reliability import (
    Deadline,
    DeadlineExceeded,
    QueryRejected,
    ReadPolicy,
    ReliabilityConfig,
)
from .store import ChunkStore

__all__ = ["BBoxQuery", "SlabQuery", "ViewportQuery", "RayQuery",
           "QueryResult", "VolumeServer"]


# -- query shapes -------------------------------------------------------------

@dataclass(frozen=True)
class BBoxQuery:
    """Dense subvolume over the half-open voxel box ``[lo, hi)``."""
    lo: Tuple[int, int, int]
    hi: Tuple[int, int, int]

    kind = "bbox"


@dataclass(frozen=True)
class SlabQuery:
    """Slices ``start..stop`` (half-open) along ``axis`` (0=x, 1=y, 2=z)."""
    axis: int
    start: int
    stop: int

    kind = "slab"


@dataclass(frozen=True)
class ViewportQuery:
    """What viewpoint ``viewpoint`` of an ``n_viewpoints`` orbit sees.

    ``zoom`` scales the viewed box (1.0 = whole volume, 2.0 = half
    extent) and ``pan`` shifts its center in voxels; both model a user
    zooming and dragging while the orbit geometry stays the renderer's.
    """
    viewpoint: int
    n_viewpoints: int = 8
    zoom: float = 1.0
    pan: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    kind = "viewport"


@dataclass(frozen=True)
class RayQuery:
    """``n_samples`` nearest-voxel samples from ``origin`` along
    ``direction``, ``step`` voxels apart."""
    origin: Tuple[float, float, float]
    direction: Tuple[float, float, float]
    n_samples: int = 64
    step: float = 1.0

    kind = "ray"


Query = Union[BBoxQuery, SlabQuery, ViewportQuery, RayQuery]


# -- results ------------------------------------------------------------------

@dataclass
class QueryResult:
    """A query's payload plus the cost accounting the bench aggregates."""
    query: Query
    data: np.ndarray
    #: chunks the query *needed* (placement-independent)
    chunks_needed: int
    #: segments the query touched (placement-DEPENDENT — the metric)
    segments_touched: int
    #: bytes read from segments (touched × segment size)
    bytes_touched: int
    #: bytes in the returned payload
    bytes_returned: int
    #: wall-clock processing latency, seconds (perf_counter)
    latency_s: float
    #: cache hits / misses attributable to this query
    cache_hits: int = 0
    cache_misses: int = 0
    #: how many attempts it took (1 = first try; >1 means retries fired)
    attempts: int = 1

    ok = True

    @property
    def utilization(self) -> float:
        """Returned / touched bytes — how much of the I/O was useful."""
        return self.bytes_returned / self.bytes_touched \
            if self.bytes_touched else 1.0


# -- the server ---------------------------------------------------------------

#: (right, up, view) sign columns of a box's eight corners, each (8, 1)
_CORNER_SIGNS = np.array([(sr, su, sv) for sr in (-1.0, 1.0)
                          for su in (-1.0, 1.0)
                          for sv in (-1.0, 1.0)]).T[:, :, None]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors, bit for bit, without its set-up cost.

    Each component is the same difference of two rounded products.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0])


class VolumeServer:
    """Serve spatial queries over a :class:`ChunkStore`.

    ``cache`` is a cache spec string (``"lru:capacity=64"``,
    ``"none"``) or an already-built cache object.  All reads go
    through the cache; its ``access_log`` is the segment stream the
    memsim cross-check (:mod:`repro.serve.validate`) replays.
    """

    def __init__(self, store: ChunkStore,
                 cache: Union[str, None, object] = "lru:capacity=64",
                 reliability: Optional[ReliabilityConfig] = None,
                 reader=None):
        self.store = store
        self.cache = cache if hasattr(cache, "get") else make_cache(cache)
        self.reliability = reliability
        self._policy = ReadPolicy(reliability) \
            if reliability is not None else None
        # ``reader(seg, policy) -> segment array`` replaces the static
        # store read on cache misses — a cluster injects its versioned
        # shard-map routing here without the server knowing about maps
        self._reader = reader
        self._inflight = 0
        self.queries_served = 0

    # -- geometry helpers ----------------------------------------------------

    def _slab_bbox(self, q: SlabQuery) -> Tuple[Tuple[int, ...],
                                                Tuple[int, ...]]:
        if not 0 <= q.axis <= 2:
            raise ValueError(f"slab axis must be 0..2, got {q.axis}")
        lo = [0, 0, 0]
        hi = list(self.store.shape)
        lo[q.axis] = q.start
        hi[q.axis] = q.stop
        return tuple(lo), tuple(hi)

    def _viewport_bbox(self, q: ViewportQuery) -> Tuple[Tuple[int, ...],
                                                        Tuple[int, ...]]:
        """Axis-aligned voxel box for an orbit viewpoint.

        The camera basis comes from the volrend kernel; the viewed
        region is an oriented box centered on ``center + pan`` whose
        half-extents shrink with ``zoom``, and its eight corners are
        clipped to the volume to yield the AABB actually fetched.
        """
        if q.zoom <= 0:
            raise ValueError(f"zoom must be positive, got {q.zoom}")
        shape = self.store.shape
        cam = orbit_camera(shape, q.viewpoint, n_viewpoints=q.n_viewpoints)
        eye = np.asarray(cam.eye, dtype=np.float64)
        center = np.asarray(cam.center, dtype=np.float64) \
            + np.asarray(q.pan, dtype=np.float64)
        view = center - eye
        view /= np.linalg.norm(view)
        up = np.asarray(cam.up, dtype=np.float64)
        right = _cross(view, up)
        right /= np.linalg.norm(right)
        true_up = _cross(right, view)
        # the visible region is the oriented cube inscribed in the view
        # sphere of radius max_extent/(2*zoom): half-edge = r/sqrt(3),
        # so zooming in shrinks the fetched box isotropically instead of
        # inflating it by the AABB of a volume-sized oriented cube
        r = float(np.array(shape, dtype=np.float64).max()) / (2.0 * q.zoom)
        h = r / np.sqrt(3.0)
        sr, su, sv = _CORNER_SIGNS
        pts = center + h * (sr * right + su * true_up + sv * view)
        lo = np.floor(pts.min(axis=0)).astype(np.int64)
        hi = np.ceil(pts.max(axis=0)).astype(np.int64)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, np.asarray(shape, dtype=np.int64))
        # a fully off-volume pan still yields a valid 1-voxel box
        hi = np.maximum(hi, lo + 1)
        hi = np.minimum(hi, np.asarray(shape, dtype=np.int64))
        lo = np.minimum(lo, hi - 1)
        return tuple(int(v) for v in lo), tuple(int(v) for v in hi)

    def _ray_points(self, q: RayQuery) -> np.ndarray:
        d = np.asarray(q.direction, dtype=np.float64)
        norm = np.linalg.norm(d)
        if norm == 0:
            raise ValueError("ray direction must be non-zero")
        d = d / norm
        o = np.asarray(q.origin, dtype=np.float64)
        t = np.arange(q.n_samples, dtype=np.float64) * q.step
        pts = o[None, :] + t[:, None] * d[None, :]
        idx = np.rint(pts).astype(np.int64)
        shape = np.asarray(self.store.shape, dtype=np.int64)
        inside = np.all((idx >= 0) & (idx < shape[None, :]), axis=1)
        return idx[inside]

    # -- the synchronous core ------------------------------------------------

    def _load_segment(self, seg: int) -> np.ndarray:
        """The cache's miss loader: a policy-routed store read."""
        if self._reader is not None:
            return self._reader(seg, self._policy)
        return self.store.read_segment(seg, policy=self._policy)

    def _process(self, q: Query, attempt: int = 1) -> QueryResult:
        if not isinstance(q, (BBoxQuery, SlabQuery, ViewportQuery,
                              RayQuery)):
            raise TypeError(f"unknown query type {type(q).__name__}")
        store = self.store
        cache = self.cache
        deadline = None
        if self.reliability is not None \
                and self.reliability.deadline_s is not None:
            # a fresh budget per attempt: retrying re-arms the deadline
            deadline = self._policy.deadline = \
                Deadline(self.reliability.deadline_s)
        load = self._load_segment
        segs: List[int] = []  # one per fetched segment run, in plan order
        needed = 0

        def fetch(seg: int, n_chunks: int) -> np.ndarray:
            # between segment runs is the only place synchronous
            # processing can honor a deadline
            nonlocal needed
            if deadline is not None:
                deadline.check()
            block = cache.get(seg, load, n_chunks)
            segs.append(seg)
            needed += n_chunks
            return block

        hits0, misses0 = cache.hits, cache.misses
        t0 = time.perf_counter()
        with _trace.span("serve.query", kind=q.kind, order=store.order) as sp:
            if isinstance(q, RayQuery):
                data = self._sample_points(self._ray_points(q), fetch)
            else:
                if isinstance(q, BBoxQuery):
                    lo, hi = q.lo, q.hi
                elif isinstance(q, SlabQuery):
                    lo, hi = self._slab_bbox(q)
                else:
                    lo, hi = self._viewport_bbox(q)
                data = store.read_bbox(lo, hi, fetch=fetch)
            touched = len(segs)
            bytes_touched = store.segments_bytes(segs)
            bytes_returned = int(data.nbytes)
            sp.set("chunks_needed", needed)
            sp.set("segments_touched", touched)
            sp.set("bytes_returned", bytes_returned)
        latency = time.perf_counter() - t0
        self.queries_served += 1
        return QueryResult(
            query=q, data=data, chunks_needed=needed,
            segments_touched=touched, bytes_touched=bytes_touched,
            bytes_returned=bytes_returned, latency_s=latency,
            cache_hits=cache.hits - hits0,
            cache_misses=cache.misses - misses0,
            attempts=attempt)

    def _sample_points(self, idx: np.ndarray, fetch) -> np.ndarray:
        """Nearest-voxel samples at integer points ``idx`` (N×3).

        The run contract of :meth:`ChunkStore.read_bbox`: the needed
        chunks in file-slot order, one ``fetch(segment, n_chunks)`` per
        segment run, then one gather for the run's points.
        """
        store = self.store
        out = np.empty(idx.shape[0], dtype=store.dtype)
        if idx.size == 0:
            return out
        chunk = np.asarray(store.chunk_shape, dtype=np.int64)
        cell = idx // chunk
        local = idx - cell * chunk
        slots = store.slot_of[store.chunk_ids(cell[:, 0], cell[:, 1],
                                              cell[:, 2])]
        offs = slots % store.chunks_per_segment
        uniq, chunk_of = np.unique(slots, return_inverse=True)
        by_chunk = np.argsort(chunk_of, kind="stable")
        segs, bounds = store.segment_runs(uniq)
        # each run's points, as a range of by_chunk
        first = np.searchsorted(chunk_of[by_chunk], bounds).tolist()
        for seg, start, stop, p0, p1 in zip(segs, bounds, bounds[1:],
                                            first, first[1:]):
            block = fetch(seg, stop - start)
            sel = by_chunk[p0:p1]
            out[sel] = block[offs[sel], local[sel, 0], local[sel, 1],
                             local[sel, 2]]
        return out

    # -- the retry loop ------------------------------------------------------

    def _attempts(self, q: Query):
        """The one retry loop behind :meth:`serve` and :meth:`query`.

        A generator that runs attempts and yields the backoff delay
        before each retry, so each caller sleeps its own way; its
        return value is the answer.  Without a reliability config the
        one attempt's failure raises.
        """
        if self.reliability is None:
            return self._process(q)
        retry = self.reliability.retry
        attempt = 1
        while True:
            try:
                return self._process(q, attempt=attempt)
            except DeadlineExceeded as exc:
                _trace.add("serve.reliability_deadline_miss", 1)
                reason, error = "deadline", f"deadline: {exc}"
            except Exception as exc:
                reason, error = "error", f"{type(exc).__name__}: {exc}"
            if attempt > retry.max_retries or not retry.retryable(error):
                _trace.add("serve.reliability_failed", 1)
                return QueryRejected(query=q, reason=reason, error=error,
                                     attempts=attempt)
            _trace.add("serve.reliability_retries", 1)
            yield retry.backoff_seconds(attempt)
            attempt += 1

    # -- public surface ------------------------------------------------------

    def serve(self, q: Query) -> Union[QueryResult, QueryRejected]:
        """Synchronous single-query entry point (tests, scripts).

        With a :class:`~repro.serve.reliability.ReliabilityConfig`
        attached, failures are retried per the policy and an exhausted
        query returns a typed :class:`QueryRejected`; without one,
        failures raise (the original contract).
        """
        attempts = self._attempts(q)
        while True:
            try:
                delay = next(attempts)
            except StopIteration as done:
                return done.value
            time.sleep(delay)

    async def query(self, q: Query,
                    semaphore: Optional[asyncio.Semaphore] = None
                    ) -> Union[QueryResult, QueryRejected]:
        """Answer one query; processing happens atomically in this task.

        The optional semaphore bounds concurrent in-flight queries.
        All awaiting happens *before* the trace span opens — the
        tracer's span stack requires each span to nest cleanly, so the
        processing inside it is synchronous.  Deadlines are therefore
        *cooperative*: the read path checks the attempt's budget
        between segment reads, which bounds a query without tearing a
        span open mid-stack the way task cancellation would.

        With reliability configured, a failed attempt backs off
        (yielding the loop to other queries), re-arms its deadline and
        retries per the policy; exhaustion returns
        :class:`QueryRejected` instead of raising.
        """
        if semaphore is None:
            await asyncio.sleep(0)
            return await self._query_with_retries(q)
        async with semaphore:
            return await self._query_with_retries(q)

    async def _query_with_retries(self, q: Query):
        attempts = self._attempts(q)
        while True:
            try:
                delay = next(attempts)
            except StopIteration as done:
                return done.value
            await asyncio.sleep(delay)

    async def session(self, queries: Sequence[Query], *,
                      concurrency: int = 4,
                      arrivals: Optional[Sequence[float]] = None,
                      time_scale: float = 1.0,
                      perturb: Optional["ScheduleFuzzer"] = None,
                      ) -> List[QueryResult]:
        """Serve a whole workload; results come back in *query order*.

        ``arrivals`` (seconds, from :func:`repro.serve.traffic.
        arrival_times`) delays each query's submission to model a
        traffic profile; ``time_scale`` compresses those delays so
        benches can replay an hour of arrivals in milliseconds.

        With reliability configured, admission is bounded: a query
        arriving while ``max_inflight`` others are queued or executing
        is shed immediately with a typed :class:`QueryRejected` —
        back-pressure by explicit refusal, never by unbounded queueing.
        Results still line up 1:1 with ``queries``, and the wrapping
        ``serve.session`` span rolls up p50/p99 latency and the
        shed/rejected tallies for the manifest.

        ``perturb`` (a :class:`~repro.serve.fuzz.ScheduleFuzzer`)
        injects extra event-loop yields at the scheduling seams —
        query arrival and post-admission — so the interleaving fuzzer
        can explore alternative schedules.  The seams sit strictly
        outside the admission-check/increment pair, which must stay
        atomic between yield points (a hook there would *create* the
        TOCTOU the design forbids).
        """
        rel = self.reliability

        async def one(i: int, q: Query) -> Tuple[int, QueryResult]:
            if arrivals is not None:
                delay = float(arrivals[i]) * time_scale
                if delay > 0:
                    await asyncio.sleep(delay)
            if perturb is not None:
                await perturb.point("arrival")
            if rel is not None and rel.max_inflight is not None \
                    and self._inflight >= rel.max_inflight:
                _trace.add("serve.reliability_shed", 1)
                return i, QueryRejected(
                    query=q, reason="shed",
                    error=f"admission queue full "
                          f"({rel.max_inflight} in flight)")
            self._inflight += 1
            try:
                if perturb is not None:
                    await perturb.point("admitted")
                return i, await self.query(q, sem)
            finally:
                self._inflight -= 1

        sem = asyncio.Semaphore(concurrency)
        with _trace.span("serve.session", n_queries=len(queries),
                         concurrency=concurrency) as sp:
            pairs = await asyncio.gather(
                *(one(i, q) for i, q in enumerate(queries)))
            results: List[Optional[QueryResult]] = [None] * len(queries)
            for i, r in pairs:
                results[i] = r
            ok = [r for r in results if r is not None and r.ok]
            rejected = [r for r in results if r is not None and not r.ok]
            if ok:
                lat_ms = np.sort([r.latency_s for r in ok]) * 1e3
                sp.set("p50_ms", float(np.percentile(lat_ms, 50)))
                sp.set("p99_ms", float(np.percentile(lat_ms, 99)))
            sp.set("ok", len(ok))
            sp.set("rejected", len(rejected))
            sp.set("shed", sum(1 for r in rejected if r.reason == "shed"))
            sp.set("deadline_misses",
                   sum(1 for r in rejected if r.reason == "deadline"))
        return results  # type: ignore[return-value]

    def serve_session(self, queries: Sequence[Query], *,
                      concurrency: int = 4,
                      arrivals: Optional[Sequence[float]] = None,
                      time_scale: float = 1.0) -> List[QueryResult]:
        """:meth:`session` without an event loop in hand."""
        return asyncio.run(self.session(
            queries, concurrency=concurrency, arrivals=arrivals,
            time_scale=time_scale))
