"""Trace-driven memory-hierarchy simulator (the PAPI/hardware substitute).

Feed it the line-address streams a kernel generates and it answers the
questions the paper asked of PAPI: how many requests reached each cache
level, and what did the memory system cost the program?

Public surface:

* :class:`~repro.memsim.cache.Cache` / :class:`CacheConfig` — one
  set-associative cache (LRU/FIFO/PLRU/random/direct);
* :class:`~repro.memsim.hierarchy.Machine` / :class:`PlatformSpec` —
  multi-core hierarchies with per-core, per-socket, and global levels;
* :data:`~repro.memsim.platforms.EDISON_IVYBRIDGE` and
  :data:`~repro.memsim.platforms.BABBAGE_MIC` — the paper's platforms;
* :class:`~repro.memsim.engine.SimulationEngine` — quantum-interleaved
  multi-thread simulation returning counters + cost-model runtime;
* :mod:`~repro.memsim.stackdist` — stack-distance pricing of LRU
  caches without replay: the exact W-way hit test :func:`lru_hits`,
  with which the engine's default backend prices whole LRU
  hierarchies, and single-pass histograms
  (:func:`stack_distance_histogram`, :class:`StackDistanceHistogram`,
  :class:`HistogramStore`, :func:`fully_associative_spec`) pricing
  every fully-associative LRU capacity at once;
* :class:`~repro.memsim.address.AddressSpace`,
  :class:`~repro.memsim.trace.TraceChunk` — trace plumbing.
"""

from .address import AddressSpace
from .cache import Cache, CacheConfig, CacheStats, REPLACEMENT_POLICIES
from .cost import CostModel
from .energy import DEFAULT_ACCESS_ENERGY_NJ, EnergyModel, energy_of_result
from .gpu import (
    CoalescingStats,
    bilateral_warp_stats,
    volrend_warp_stats,
    warp_transactions,
)
from .engine import SimResult, SimulationEngine, ThreadWork
from .hierarchy import LevelSpec, Machine, PlatformSpec, ServiceCounts
from .stackdist import (
    HistogramStore,
    StackDistanceHistogram,
    fully_associative_spec,
    lru_hits,
    per_thread_histograms,
    prices_by_histogram,
    stack_distance_histogram,
    stack_distances,
    stack_ineligibility,
)
from .prefetch import PrefetchConfig, StreamPrefetcher
from .platforms import (
    BABBAGE_MIC,
    EDISON_IVYBRIDGE,
    PLATFORMS,
    get_platform,
    scaled_ivybridge,
    scaled_mic,
    with_replacement,
)
from .trace import TraceChunk, collapse_consecutive, concat_chunks, offsets_to_lines
from .sanitize import (
    AccessSanitizer,
    SanitizeViolation,
)
from . import sanitize as _sanitize

__all__ = [
    "AccessSanitizer",
    "AddressSpace",
    "BABBAGE_MIC",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "CoalescingStats",
    "bilateral_warp_stats",
    "volrend_warp_stats",
    "warp_transactions",
    "CostModel",
    "DEFAULT_ACCESS_ENERGY_NJ",
    "EDISON_IVYBRIDGE",
    "EnergyModel",
    "energy_of_result",
    "HistogramStore",
    "StackDistanceHistogram",
    "fully_associative_spec",
    "lru_hits",
    "per_thread_histograms",
    "prices_by_histogram",
    "stack_distance_histogram",
    "stack_distances",
    "stack_ineligibility",
    "LevelSpec",
    "Machine",
    "PLATFORMS",
    "PlatformSpec",
    "PrefetchConfig",
    "StreamPrefetcher",
    "REPLACEMENT_POLICIES",
    "SanitizeViolation",
    "ServiceCounts",
    "SimResult",
    "SimulationEngine",
    "ThreadWork",
    "TraceChunk",
    "collapse_consecutive",
    "concat_chunks",
    "get_platform",
    "offsets_to_lines",
    "scaled_ivybridge",
    "scaled_mic",
    "with_replacement",
]

# honor REPRO_SANITIZE=1 / =report: opt-in runtime access validation
# (see docs/STATIC_ANALYSIS.md); a no-op when the variable is unset
_sanitize.enable_from_env()
