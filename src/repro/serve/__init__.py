"""Layout-aware chunked volume serving.

The paper's space-filling-curve argument, carried from one address
space to a storage-and-query service:

* :class:`~repro.serve.store.ChunkStore` — a volume bricked into
  chunks placed on disk in the file order of any registered layout
  (order is a spec string: ``"morton"``, ``"hilbert"``,
  ``"tiled:brick=2"``, ``"array"`` for row-major), written durably
  through :mod:`repro.resilience.artifacts`;
* :class:`~repro.serve.server.VolumeServer` — an asyncio service
  answering bbox / slab / viewport / ray queries behind a hot-segment
  LRU whose counters are cross-checked **bit-for-bit** against the
  memsim stack-distance model (:mod:`repro.serve.validate`);
* :mod:`~repro.serve.reliability` — the fault-tolerance layer:
  N-way segment replication across simulated shards (placement keyed
  by curve-segment ranges), read-path failover with read-repair,
  per-query deadlines, retries, per-shard circuit breakers and
  bounded admission with typed load-shedding
  (``docs/SERVING.md`` § Serving reliability);
* :mod:`~repro.serve.placement` — the curve-range shard placement
  (:class:`~repro.serve.placement.ShardMap`): the store's static
  placement and every version of a cluster's map;
* :mod:`~repro.serve.cluster` — the elastic tier on top: versioned
  shard maps, deterministic event-count failure detection, budgeted
  rebalancing that re-replicates through the read-repair path while
  the old map keeps serving, and an anti-entropy scrubber
  (``docs/SERVING.md`` § Elastic sharding);
* :mod:`~repro.serve.traffic` — seeded synthetic sessions (Zipf
  viewpoints, orbit sweeps, burst arrivals);
* :mod:`~repro.serve.fuzz` — seeded scheduling perturbation
  (:class:`~repro.serve.fuzz.ScheduleFuzzer`): the runtime twin of the
  RPC5xx static rules, driven by ``repro chaos fuzz`` to prove served
  bytes are interleaving-independent;
* :mod:`~repro.serve.bench` — the cross-layout comparison
  (``repro serve-bench``) with its gate:
  curve orders must touch no more segments per query than row-major.

See ``docs/SERVING.md`` for the tour.
"""

from .bench import OrderResult, ServeBenchResult, render, run_serve_bench
from .cache import LRUCache, NoCache, make_cache
from .cluster import (
    FailureDetector,
    RebalanceComparison,
    Scrubber,
    ShardCluster,
    compare_rebalance,
)
from .fuzz import ScheduleFuzzer
from .placement import ShardMap
from .reliability import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    QueryRejected,
    ReadPolicy,
    ReliabilityConfig,
)
from .server import (
    BBoxQuery,
    QueryResult,
    RayQuery,
    SlabQuery,
    ViewportQuery,
    VolumeServer,
)
from .store import ChunkStore, chunk_placement
from .traffic import DEFAULT_MIX, arrival_times, generate_queries
from .validate import CacheCrossCheck, assert_cache_consistent, cache_crosscheck

__all__ = [
    "BBoxQuery",
    "CacheCrossCheck",
    "ChunkStore",
    "CircuitBreaker",
    "DEFAULT_MIX",
    "Deadline",
    "DeadlineExceeded",
    "FailureDetector",
    "LRUCache",
    "NoCache",
    "OrderResult",
    "QueryRejected",
    "QueryResult",
    "RayQuery",
    "ReadPolicy",
    "RebalanceComparison",
    "ReliabilityConfig",
    "ScheduleFuzzer",
    "Scrubber",
    "ServeBenchResult",
    "ShardCluster",
    "ShardMap",
    "SlabQuery",
    "ViewportQuery",
    "VolumeServer",
    "arrival_times",
    "assert_cache_consistent",
    "cache_crosscheck",
    "chunk_placement",
    "compare_rebalance",
    "generate_queries",
    "make_cache",
    "render",
    "run_serve_bench",
]
