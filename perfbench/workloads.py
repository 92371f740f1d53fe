"""The benchmark's three workloads.

Each drives the program only through public functions and checks every
output against an oracle the program does not share:

* ``figcells`` — figure-regeneration: one op is one
  ``run_bilateral_cell`` / ``run_volrend_cell`` call, checked exactly
  against ``reference/figcells.json``.
* ``serve_hot`` — two closed-loop clients awaiting
  ``VolumeServer.query`` on a fully cached 128^3 Hilbert store, so no
  segment is read in the window.
* ``serve_cold_elastic`` — one client ticking a ``ShardCluster`` and
  serving through a 16-segment cache while shards die and rejoin, so
  verified reads and rebalance writes sit in the window.

Ops are numbered: op ``i`` is a pure function of the seed, so a traced
pass can replay exactly the ops an untraced pass ran.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import sys
import time
import traceback
from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.data.synthetic import combustion_field
from repro.experiments import (
    BilateralCell,
    prepare_cell,
    run_bilateral_cell,
    run_volrend_cell,
)
from repro.serve import (
    BBoxQuery,
    ChunkStore,
    ReliabilityConfig,
    ShardCluster,
    SlabQuery,
    VolumeServer,
    assert_cache_consistent,
    generate_queries,
)

from cells import LAYOUTS, cell_for, figures

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference", "figcells.json")


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """True when both arrays hold the same dtype, shape and bytes."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    return np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


class Workload:
    """Shared shape of a workload; see the module docstring."""

    name = ""
    #: percentile reported as ``tail_ms``
    tail_pct = 90
    #: ops run between two output checks (the clock pauses for checks)
    batch = 1

    @property
    def round_ops(self) -> int:
        """A window ends on a multiple of this many ops."""
        return self.batch

    def __init__(self, seed: int):
        self.seed = seed
        self.tally: Counter = Counter()
        #: problems found outside the per-op checks
        self.errors: List[str] = []
        self._first_failure_reported = False

    def setup(self, workdir: str) -> None:
        """Everything a user pays once per process (timed as setup_s)."""

    def prepare(self) -> None:
        """Oracles and inputs: outside both set-up and the window."""

    def ensure_ops(self, n: int) -> None:
        """Make the inputs of ops ``0..n-1`` exist (outside the window)."""

    def run_batch(self, start: int, stop: int,
                  latencies: List[float]) -> List[tuple]:
        raise NotImplementedError

    def check(self, records: Sequence[tuple]) -> int:
        """Number of failed ops among ``records``."""
        raise NotImplementedError

    def end_window(self) -> None:
        """Work that belongs inside the window but is no op."""

    def rewind(self) -> None:
        """Return to the state op 0 started from."""

    def snapshot(self) -> Dict[str, float]:
        return {}

    def counts(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Exact per-layer counts accumulated since ``snapshot``."""
        return {}

    def finish(self) -> None:
        """Checks that need the whole session."""

    def teardown(self) -> None:
        pass

    def _report_failure(self, what: str, exc: BaseException = None) -> None:
        """Print the first failure of a run with its traceback."""
        if self._first_failure_reported:
            return
        self._first_failure_reported = True
        print(f"{self.name}: first failure: {what}", file=sys.stderr,
              flush=True)
        if exc is not None:
            traceback.print_exception(exc)


# -- figure cells -------------------------------------------------------------

class FigCells(Workload):
    """A seeded, stratified sample of paper-figure cells.

    A stratum is one (figure, row, threads) point of a bilateral figure,
    or one (figure, viewpoint class, threads) point of a volrend figure,
    where viewpoints v and v + 4 form a class: the orbit is symmetric,
    so both render the same d_s row.  A round runs one (array, morton)
    pair per stratum, the seed choosing the viewpoint of each volrend
    class.  A window runs whole rounds, so it holds the same mix of
    figures, rows and concurrencies on every seed; a simple random
    sample of cells, whose host cost spans 100x, would move
    ``ops_per_s`` by ~10% from seed to seed.
    """

    name = "figcells"
    tail_pct = 90
    batch = 2

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.figs = figures()
        self.strata: List[List[str]] = []
        for fig in self.figs.values():
            threads = fig.concurrencies[:1] if tiny else fig.concurrencies
            if tiny and fig.name == "fig6":
                continue
            if fig.kernel == "bilateral":
                classes = [[row] for row in fig.rows]
            else:
                classes = [[f"vp{v}", f"vp{v + 4}"] for v in range(4)]
            self.strata.extend([f"{fig.name}/{row}/{t}" for row in rows]
                               for rows in classes for t in threads)
        self.labels: List[str] = []
        self._rng = np.random.default_rng(seed)

    @property
    def round_ops(self) -> int:
        # whole rounds only: every window then holds the same strata
        return 2 * len(self.strata)

    def setup(self, workdir: str) -> None:
        # dataset generation and grid packing for both layouts of both
        # kernels; prepare_cell fills the harness's dataset/grid caches
        for pair in ("fig2/r1-px-xyz/2", "fig5/vp0/2"):
            for layout in LAYOUTS:
                prepare_cell(cell_for(self.figs, f"{pair}/{layout}"))

    def prepare(self) -> None:
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)["cells"]

    def ensure_ops(self, n: int) -> None:
        while len(self.labels) < n:
            for twins in self.strata:
                pair = twins[int(self._rng.integers(len(twins)))]
                self.labels.extend(f"{pair}/{lay}" for lay in LAYOUTS)

    def run_batch(self, start, stop, latencies):
        records = []
        for label in self.labels[start:stop]:
            cell = cell_for(self.figs, label)
            runner = run_bilateral_cell if isinstance(cell, BilateralCell) \
                else run_volrend_cell
            t0 = time.perf_counter()
            try:
                result = runner(cell)
            except Exception as exc:  # counted as a failed op
                result = exc
            latencies.append(time.perf_counter() - t0)
            records.append((label, result))
        return records

    def check(self, records):
        failed = 0
        for label, result in records:
            if isinstance(result, Exception):
                self._report_failure(f"{label} raised", result)
                failed += 1
                continue
            ref = self.reference[label]
            rt = ref["runtime_seconds"]
            if result.counters != ref["counters"] or \
                    abs(result.runtime_seconds - rt) > 1e-9 * abs(rt):
                self._report_failure(f"{label} differs from the reference")
                failed += 1
        return failed


# -- serving ------------------------------------------------------------------

class _Serving(Workload):
    """Shared serving plumbing: dense oracle, query pool, payload checks."""

    shape: Tuple[int, int, int]
    chunk: int
    #: queries generated per seeded block
    block = 1024

    def setup(self, workdir: str) -> None:
        self.workdir = workdir
        self.dense = combustion_field(self.shape, seed=0)

    def prepare(self) -> None:
        # viewport and ray payloads are checked against an undisturbed
        # single-replica array-order server over the same volume, stored
        # as one chunk: its answers are plain slices of the volume
        ref = ChunkStore.create(os.path.join(self.workdir, "oracle"),
                                self.dense, order="array",
                                chunk=self.shape, chunks_per_segment=1)
        self.oracle = VolumeServer(ref, cache="lru:capacity=1")
        self.queries: List[object] = []

    def ensure_ops(self, n: int) -> None:
        while len(self.queries) < n:
            block = len(self.queries) // self.block
            seed = int(np.random.SeedSequence([self.seed, block])
                       .generate_state(1)[0])
            self.queries.extend(generate_queries(self.shape, self.block,
                                                 seed=seed))

    def expected(self, q) -> np.ndarray:
        if isinstance(q, BBoxQuery):
            return self.dense[tuple(slice(a, b) for a, b in zip(q.lo, q.hi))]
        if isinstance(q, SlabQuery):
            box = [slice(None)] * 3
            box[q.axis] = slice(q.start, q.stop)
            return self.dense[tuple(box)]
        return self.oracle.serve(q).data

    def check(self, records):
        failed = 0
        for q, result in records:
            if isinstance(result, Exception):
                self._report_failure(f"{q} raised", result)
                failed += 1
            elif not result.ok:
                self._report_failure(f"{q} rejected: {result.error}")
                failed += 1
            elif not same_bytes(result.data, self.expected(q)):
                self._report_failure(f"{q} payload differs from the oracle")
                failed += 1
            else:
                self.tally["segments_touched"] += result.segments_touched
                self.tally["chunks_needed"] += result.chunks_needed
                self.tally["bytes_returned"] += result.bytes_returned
                self.tally["bytes_touched"] += result.bytes_touched
        return failed

    def _cache_check(self, cache) -> None:
        try:
            assert_cache_consistent(cache)
        except AssertionError as exc:
            self.errors.append(str(exc))

    def _cache_counts(self, cache, store, snapshot) -> Dict[str, float]:
        accesses = cache.accesses - snapshot["accesses"]
        hits = cache.hits - snapshot["hits"]
        touched = self.tally["bytes_touched"]
        return {
            "serve.cache.accesses": accesses,
            "serve.cache.hit_ratio": hits / accesses if accesses else 0.0,
            "serve.segments_touched": self.tally["segments_touched"],
            "serve.chunks_needed": self.tally["chunks_needed"],
            "serve.utilization": (self.tally["bytes_returned"] / touched
                                  if touched else 0.0),
            "serve.store.failovers": store.failovers - snapshot["failovers"],
        }


class ServeHot(_Serving):
    """Two closed-loop clients on one event loop over a fully cached store.

    Set-up stores a 128^3 combustion volume in Hilbert order (16^3
    chunks, 4 per segment, 2 replicas on 4 shards) and fills an LRU that
    holds every segment with one full-volume query, so the window reads
    no segment: it measures planning, cache lookups and the per-chunk
    assembly copy.
    """

    name = "serve_hot"
    tail_pct = 99
    batch = 16

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.shape = (32,) * 3 if tiny else (128,) * 3
        self.chunk = 4 if tiny else 16

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        store = ChunkStore.create(os.path.join(workdir, "store"), self.dense,
                                  order="hilbert", chunk=self.chunk,
                                  chunks_per_segment=4, replicas=2, shards=4)
        self.server = VolumeServer(
            store, cache=f"lru:capacity={store.n_segments}",
            reliability=ReliabilityConfig())
        fill = self.server.serve(BBoxQuery((0, 0, 0), self.shape))
        if not fill.ok:
            raise RuntimeError(f"cache fill failed: {fill.error}")

    def prepare(self) -> None:
        super().prepare()
        self.loop = asyncio.new_event_loop()

    async def _clients(self, start, stop, latencies, records):
        cursor = start

        async def client():
            nonlocal cursor
            while cursor < stop:
                q = self.queries[cursor]
                cursor += 1
                t0 = time.perf_counter()
                try:
                    result = await self.server.query(q)
                except Exception as exc:  # counted as a failed op
                    result = exc
                latencies.append(time.perf_counter() - t0)
                records.append((q, result))

        await asyncio.gather(client(), client())

    def run_batch(self, start, stop, latencies):
        records: List[tuple] = []
        self.loop.run_until_complete(
            self._clients(start, stop, latencies, records))
        return records

    def snapshot(self):
        cache = self.server.cache
        return {"accesses": cache.accesses, "hits": cache.hits,
                "failovers": self.server.store.failovers}

    def counts(self, snapshot):
        return self._cache_counts(self.server.cache, self.server.store,
                                  snapshot)

    def finish(self) -> None:
        self._cache_check(self.server.cache)

    def teardown(self) -> None:
        if getattr(self, "loop", None) is not None:
            self.loop.close()


class ServeColdElastic(_Serving):
    """One client ticking an elastic shard cluster through a small cache.

    A 64^3 volume in Hilbert order (8^3 chunks, 4 per segment: 128
    segments, 2 replicas on 6 shards) behind a 16-segment LRU, so about
    a third of segment accesses miss and go through the verified read
    path.  A seeded rolling schedule kills one shard every ~400 events
    and revives it ~200 events later; each detected death or rejoin
    starts a rebalance whose copies go through the verified write path.
    The schedule is applied through ``kill``/``revive`` at the event it
    names, so it never outlives the window and ``settle`` ends it.
    """

    name = "serve_cold_elastic"
    tail_pct = 99
    batch = 32
    #: events covered by the precomputed schedule
    horizon = 1_000_000

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        self.shape = (32,) * 3 if tiny else (64,) * 3
        self.chunk = 4 if tiny else 8
        self._generation = 0

    def setup(self, workdir: str) -> None:
        super().setup(workdir)
        self._build()

    def _build(self) -> None:
        path = os.path.join(self.workdir, f"store-{self._generation}")
        self._generation += 1
        store = ChunkStore.create(path, self.dense, order="hilbert",
                                  chunk=self.chunk, chunks_per_segment=4,
                                  replicas=2, shards=6)
        self.cluster = ShardCluster(store, cache="lru:capacity=16",
                                    reliability=ReliabilityConfig(),
                                    scrub_budget=1)

    def prepare(self) -> None:
        super().prepare()
        rng = np.random.default_rng([self.seed, 1])
        self.schedule: Dict[int, List[Tuple[str, int]]] = {}
        event = 0
        while event < self.horizon:
            event += 400 + int(rng.integers(-50, 51))
            shard = int(rng.integers(6))
            back = event + 200 + int(rng.integers(-25, 26))
            self.schedule.setdefault(event, []).append(("kill", shard))
            self.schedule.setdefault(back, []).append(("revive", shard))

    def run_batch(self, start, stop, latencies):
        cluster = self.cluster
        server = cluster.server
        records = []
        for q in self.queries[start:stop]:
            t0 = time.perf_counter()
            try:
                for action, shard in self.schedule.get(cluster.events + 1,
                                                       ()):
                    getattr(cluster, action)(shard)
                cluster.tick()
                result = server.serve(q)
            except Exception as exc:  # counted as a failed op
                result = exc
            latencies.append(time.perf_counter() - t0)
            records.append((q, result))
        return records

    def end_window(self) -> None:
        self.cluster.settle()

    def rewind(self) -> None:
        self._cache_check(self.cluster.server.cache)
        shutil.rmtree(self.cluster.store.path, ignore_errors=True)
        self._build()

    def snapshot(self):
        cl = self.cluster
        return {"accesses": cl.server.cache.accesses,
                "hits": cl.server.cache.hits,
                "failovers": cl.store.failovers,
                "moved": cl.segments_moved,
                "checked": cl.scrubber.checked,
                "history": len(cl.under_replicated_history)}

    def counts(self, snapshot):
        cl = self.cluster
        out = self._cache_counts(cl.server.cache, cl.store, snapshot)
        window = cl.under_replicated_history[snapshot["history"]:]
        out.update({
            "serve.cluster.segments_moved": cl.segments_moved
            - snapshot["moved"],
            "serve.cluster.scrub_checked": cl.scrubber.checked
            - snapshot["checked"],
            "serve.cluster.under_replicated_peak": max(
                (n for _, n in window), default=0),
        })
        return out

    def finish(self) -> None:
        self._cache_check(self.cluster.server.cache)


WORKLOADS = {wl.name: wl for wl in (FigCells, ServeHot, ServeColdElastic)}
