"""Serve bench: the same traffic against every chunk order, compared.

The experiment the serving layer exists to run: brick one volume
several ways (row-major baseline vs space-filling curves), replay the
*identical* seeded workload against each store, and report

* p50 / p99 query latency and throughput (QPS),
* mean segments touched per bbox-family query — the
  placement-dependent I/O cost,
* chunk utilization (bytes returned / bytes touched),
* cache hit rate, cross-checked bit-for-bit against memsim
  (:mod:`repro.serve.validate`) before any number is reported.

The **gate** asserts the paper's claim transplanted to storage: a
curve order must touch no more segments per bbox query than the
row-major baseline.  ``repro serve-bench`` is a thin wrapper over
:func:`run_serve_bench`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.synthetic import combustion_field
from .server import VolumeServer
from .store import ChunkStore
from .traffic import arrival_times, generate_queries
from .validate import assert_cache_consistent

__all__ = ["OrderResult", "ServeBenchResult", "run_serve_bench", "render"]


@dataclass
class OrderResult:
    """Aggregate serving metrics for one chunk-order spec."""
    order: str
    n_queries: int
    p50_ms: float
    p99_ms: float
    qps: float
    mean_segments_per_bbox: float
    mean_chunks_needed_per_bbox: float
    utilization: float
    cache_hit_rate: float
    cache_accesses: int
    crosscheck_accesses: int

    def row(self) -> Dict[str, object]:
        return {
            "order": self.order, "n_queries": self.n_queries,
            "p50_ms": round(self.p50_ms, 3), "p99_ms": round(self.p99_ms, 3),
            "qps": round(self.qps, 1),
            "segments_per_bbox": round(self.mean_segments_per_bbox, 3),
            "chunks_needed_per_bbox":
                round(self.mean_chunks_needed_per_bbox, 3),
            "utilization": round(self.utilization, 4),
            "cache_hit_rate": round(self.cache_hit_rate, 4),
        }


@dataclass
class ServeBenchResult:
    """All per-order results plus the gate verdict."""
    shape: Sequence[int]
    chunk: int
    chunks_per_segment: int
    cache: str
    baseline: str
    results: List[OrderResult] = field(default_factory=list)

    def by_order(self, order: str) -> OrderResult:
        for r in self.results:
            if r.order == order:
                return r
        raise KeyError(order)

    def gate(self) -> List[str]:
        """Gate failures (empty = pass): every non-baseline order must
        touch no more segments per bbox query than the baseline."""
        base = self.by_order(self.baseline)
        failures = []
        for r in self.results:
            if r.order == self.baseline:
                continue
            if r.mean_segments_per_bbox > base.mean_segments_per_bbox:
                failures.append(
                    f"{r.order}: {r.mean_segments_per_bbox:.3f} segments "
                    f"per bbox query > baseline {self.baseline} "
                    f"{base.mean_segments_per_bbox:.3f}")
        return failures

    @property
    def ok(self) -> bool:
        return not self.gate()


def _bbox_like(result) -> bool:
    """Queries whose cost is a box fetch (bbox/slab/viewport)."""
    return result.query.kind in ("bbox", "slab", "viewport")


def run_serve_bench(*, shape: int = 64, chunk: int = 8,
                    chunks_per_segment: int = 4,
                    orders: Sequence[str] = ("array", "morton", "hilbert"),
                    baseline: str = "array",
                    n_queries: int = 100, seed: int = 0,
                    cache: str = "lru:capacity=32",
                    concurrency: int = 4,
                    profile: str = "burst",
                    on_degenerate: str = "error",
                    workdir: Optional[str] = None) -> ServeBenchResult:
    """Run the cross-layout serve comparison.  See module docstring.

    ``workdir`` hosts the store directories (a temp dir by default,
    removed afterwards).  ``baseline`` must be one of ``orders``.

    A chunk grid whose x-extent equals ``chunks_per_segment`` is a
    *degenerate* gate configuration: row-major segments align exactly
    with grid rows, the baseline is locally optimal, and the gate
    silently favors row-major (docs/SERVING.md).  ``on_degenerate``
    decides what happens then: ``"error"`` (default) rejects the
    configuration, ``"adjust"`` doubles ``chunks_per_segment`` and
    warns.
    """
    if baseline not in orders:
        raise ValueError(f"baseline {baseline!r} must be in orders "
                         f"{list(orders)}")
    if on_degenerate not in ("error", "adjust"):
        raise ValueError(f"on_degenerate must be 'error' or 'adjust', "
                         f"got {on_degenerate!r}")
    grid_x = -(-shape // chunk)
    if grid_x == chunks_per_segment:
        msg = (f"degenerate gate configuration: chunk-grid x-extent "
               f"({grid_x}) == chunks_per_segment ({chunks_per_segment}); "
               f"row-major segments align exactly with grid rows, so the "
               f"gate silently favors the row-major baseline")
        if on_degenerate == "error":
            raise ValueError(
                msg + " — change the geometry or pass "
                "on_degenerate='adjust'")
        chunks_per_segment *= 2
        warnings.warn(
            msg + f"; adjusted chunks_per_segment to "
            f"{chunks_per_segment}", RuntimeWarning, stacklevel=2)
    vol_shape = (shape, shape, shape)
    dense = combustion_field(vol_shape, seed=seed)
    queries = generate_queries(vol_shape, n_queries, seed=seed)
    arrivals = arrival_times(n_queries, profile=profile, seed=seed)
    out = ServeBenchResult(shape=vol_shape, chunk=chunk,
                           chunks_per_segment=chunks_per_segment,
                           cache=cache, baseline=baseline)
    tmp = None
    if workdir is None:
        tmp = tempfile.mkdtemp(prefix="repro-serve-bench-")
        workdir = tmp
    try:
        for order in orders:
            safe = order.replace(":", "_").replace(",", "_").replace("=", "-")
            store_path = os.path.join(workdir, f"store-{safe}")
            store = ChunkStore.create(store_path, dense, order=order,
                                      chunk=chunk,
                                      chunks_per_segment=chunks_per_segment)
            server = VolumeServer(store, cache=cache)
            t0 = time.perf_counter()
            results = server.serve_session(
                queries, concurrency=concurrency, arrivals=arrivals,
                time_scale=0.0)
            wall = time.perf_counter() - t0
            # a reliability-configured server may return QueryRejected
            # entries; the bench prices answered queries only
            results = [r for r in results if r.ok]
            check = assert_cache_consistent(server.cache)
            lat = np.array([r.latency_s for r in results]) * 1e3
            box = [r for r in results if _bbox_like(r)]
            touched = sum(r.bytes_touched for r in results)
            returned = sum(r.bytes_returned for r in results)
            c = server.cache.counters()
            out.results.append(OrderResult(
                order=order, n_queries=len(results),
                p50_ms=float(np.percentile(lat, 50)),
                p99_ms=float(np.percentile(lat, 99)),
                qps=len(results) / wall if wall > 0 else float("inf"),
                mean_segments_per_bbox=float(np.mean(
                    [r.segments_touched for r in box])) if box else 0.0,
                mean_chunks_needed_per_bbox=float(np.mean(
                    [r.chunks_needed for r in box])) if box else 0.0,
                utilization=returned / touched if touched else 1.0,
                cache_hit_rate=c["hits"] / c["accesses"]
                if c["accesses"] else 0.0,
                cache_accesses=c["accesses"],
                crosscheck_accesses=check.accesses))
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    return out


def render(bench: ServeBenchResult) -> str:
    """Fixed-width table + gate verdict, for scripts and the CLI."""
    cols = ["order", "p50_ms", "p99_ms", "qps", "segments_per_bbox",
            "utilization", "cache_hit_rate"]
    rows = [r.row() for r in bench.results]
    widths = {c: max(len(c), *(len(str(row[c])) for row in rows))
              for c in cols}
    lines = [
        f"serve bench: shape={tuple(bench.shape)} chunk={bench.chunk} "
        f"seg={bench.chunks_per_segment} cache={bench.cache} "
        f"(cache counters cross-checked against memsim, exact)",
        "  ".join(c.ljust(widths[c]) for c in cols),
        "  ".join("-" * widths[c] for c in cols),
    ]
    for row in rows:
        lines.append("  ".join(str(row[c]).ljust(widths[c]) for c in cols))
    failures = bench.gate()
    if failures:
        lines.append("GATE FAIL:")
        lines.extend(f"  {f}" for f in failures)
    else:
        base = bench.by_order(bench.baseline)
        best = min((r for r in bench.results if r.order != bench.baseline),
                   key=lambda r: r.mean_segments_per_bbox, default=None)
        if best is not None and best.mean_segments_per_bbox > 0:
            ratio = base.mean_segments_per_bbox / best.mean_segments_per_bbox
            lines.append(
                f"GATE PASS: curve orders touch <= baseline segments per "
                f"bbox query (best {best.order}: {ratio:.2f}x fewer than "
                f"{bench.baseline})")
        else:
            lines.append("GATE PASS")
    return "\n".join(lines)
