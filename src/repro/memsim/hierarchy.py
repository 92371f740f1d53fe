"""Multi-level, multi-core cache hierarchies.

Assembles :class:`~repro.memsim.cache.Cache` instances into a machine
model: private levels are instantiated per core, shared levels per
socket or per machine.  An access enters at the L1 of the issuing core
and percolates outward; the machine reports, per call, how many requests
each level served — the raw material for both the PAPI-style counters
and the runtime cost model.

Scope semantics
---------------
``core``
    One instance per core.  Hardware threads mapped to the same core
    share it (this is how the MIC's 4-way SMT shares its 512 KB L2).
``socket``
    One instance per socket (Ivy Bridge's 30 MB L3 is per-processor;
    the paper's "compact" pinning keeps ≤12 threads on one socket).
``machine``
    One instance globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cache import Cache, CacheConfig, CacheStats
from .prefetch import PrefetchConfig, StreamPrefetcher

__all__ = ["LevelSpec", "PlatformSpec", "ServiceCounts", "Machine"]

_SCOPES = ("core", "socket", "machine")


@dataclass(frozen=True)
class LevelSpec:
    """One cache level of a platform: geometry + scope + latency.

    ``prefetch`` optionally attaches a per-core stream prefetcher that
    watches this level's request stream (see :mod:`repro.memsim.prefetch`).
    """

    cache: CacheConfig
    scope: str = "core"
    latency_cycles: float = 4.0
    prefetch: Optional[PrefetchConfig] = None

    def __post_init__(self):
        if self.scope not in _SCOPES:
            raise ValueError(f"scope must be one of {_SCOPES}, got {self.scope!r}")


@dataclass(frozen=True)
class PlatformSpec:
    """A machine model: cores, SMT width, clock, cache levels, memory.

    Attributes
    ----------
    name : str
        Human-readable platform label.
    n_cores : int
        Physical cores (total across sockets).
    n_sockets : int
        Sockets; cores are split evenly among them.
    smt : int
        Hardware threads per core.
    freq_ghz : float
        Core clock, used to convert cycles to seconds.
    levels : tuple of LevelSpec
        Inner to outer (L1 first).
    mem_latency_cycles : float
        Cost of a request served by DRAM.
    mem_parallelism : float
        Effective overlap of outstanding memory requests; the cost model
        divides the DRAM latency by this (≥ 1).
    counters : dict
        PAPI-style counter name → ``(level_name, "accesses"|"misses")``.
    """

    name: str
    n_cores: int
    n_sockets: int
    smt: int
    freq_ghz: float
    levels: Tuple[LevelSpec, ...]
    mem_latency_cycles: float
    mem_parallelism: float = 4.0
    counters: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: optional per-core data TLB: a CacheConfig whose line_bytes is the
    #: page size and whose geometry gives the entry count/associativity.
    #: Counter wiring may reference it by its name (e.g. ("TLB", "misses")).
    tlb: Optional[CacheConfig] = None
    #: page-walk penalty charged per TLB miss by the cost model.
    tlb_miss_cycles: float = 30.0
    #: enforce LLC inclusion: a line evicted from the outermost level is
    #: back-invalidated from the inner caches it covers (real Ivy Bridge
    #: L3s are inclusive; the default non-inclusive model is simpler and
    #: the difference is measured by tests)
    inclusive: bool = False

    def __post_init__(self):
        if self.n_cores % self.n_sockets:
            raise ValueError(
                f"{self.n_cores} cores do not split over {self.n_sockets} sockets"
            )
        if not self.levels:
            raise ValueError("platform needs at least one cache level")
        line_sizes = {lv.cache.line_bytes for lv in self.levels}
        if len(line_sizes) != 1:
            raise ValueError(f"mixed line sizes unsupported: {line_sizes}")

    @property
    def cores_per_socket(self) -> int:
        """Physical cores per socket."""
        return self.n_cores // self.n_sockets

    @property
    def line_bytes(self) -> int:
        """Cache-line size (uniform across levels)."""
        return self.levels[0].cache.line_bytes

    @property
    def max_threads(self) -> int:
        """Hardware thread capacity ``n_cores * smt``."""
        return self.n_cores * self.smt

    def level_names(self) -> List[str]:
        """Level labels, inner to outer."""
        return [lv.cache.name for lv in self.levels]

    def scaled(self, factor: int, suffix: str = "-scaled") -> "PlatformSpec":
        """Capacities divided by ``factor`` (see :meth:`CacheConfig.scaled`).

        Latencies, counts, clocks, and counter wiring are unchanged — the
        scaled platform is the same machine with proportionally smaller
        caches, for experiments on proportionally smaller volumes.
        """
        levels = tuple(
            replace(lv, cache=lv.cache.scaled(factor)) for lv in self.levels
        )
        return replace(self, name=self.name + suffix, levels=levels)


@dataclass
class ServiceCounts:
    """How many requests of one batch each memory level served."""

    per_level: Dict[str, int] = field(default_factory=dict)
    mem: int = 0
    tlb_misses: int = 0

    @property
    def total(self) -> int:
        """Total requests in the batch (TLB events are not requests)."""
        return sum(self.per_level.values()) + self.mem

    def merge(self, other: "ServiceCounts") -> "ServiceCounts":
        """Elementwise sum."""
        out = ServiceCounts(mem=self.mem + other.mem,
                            tlb_misses=self.tlb_misses + other.tlb_misses)
        for k in set(self.per_level) | set(other.per_level):
            out.per_level[k] = self.per_level.get(k, 0) + other.per_level.get(k, 0)
        return out


class Machine:
    """Instantiated cache hierarchy for a :class:`PlatformSpec`.

    Use :meth:`access` to push a batch of line ids through one core's
    cache path.  Thread→core placement is the caller's job (see
    :mod:`repro.parallel.affinity`).
    """

    def __init__(self, spec: PlatformSpec, seed: int = 0):
        self.spec = spec
        # caches[level_index] maps instance key -> Cache
        self._caches: List[Dict[int, Cache]] = []
        # prefetchers[level_index][core] — stream detection is per
        # requesting core even when the cache instance is shared
        self._prefetchers: List[Optional[Dict[int, StreamPrefetcher]]] = []
        for li, level in enumerate(spec.levels):
            instances: Dict[int, Cache] = {}
            n = {
                "core": spec.n_cores,
                "socket": spec.n_sockets,
                "machine": 1,
            }[level.scope]
            for inst in range(n):
                cache = Cache(level.cache, seed=seed + 31 * li + inst)
                if spec.inclusive and li == len(spec.levels) - 1 and li > 0:
                    cache.track_evictions = True
                instances[inst] = cache
            self._caches.append(instances)
            if level.prefetch is not None:
                self._prefetchers.append({
                    core: StreamPrefetcher(level.prefetch)
                    for core in range(spec.n_cores)
                })
            else:
                self._prefetchers.append(None)
        # per-core data TLBs over page numbers
        self._tlbs: Optional[Dict[int, Cache]] = None
        if spec.tlb is not None:
            if spec.tlb.line_bytes < spec.line_bytes:
                raise ValueError(
                    f"TLB page size {spec.tlb.line_bytes} smaller than the "
                    f"cache line size {spec.line_bytes}"
                )
            self._tlbs = {
                core: Cache(spec.tlb, seed=seed + 977 + core)
                for core in range(spec.n_cores)
            }
            self._lines_per_page = spec.tlb.line_bytes // spec.line_bytes

    # -- routing -------------------------------------------------------------

    def instance_key(self, level_index: int, core: int) -> int:
        """Which instance of the level serves ``core`` (scope routing)."""
        level = self.spec.levels[level_index]
        if level.scope == "core":
            return core
        if level.scope == "socket":
            return core // self.spec.cores_per_socket
        return 0

    def level_instances(self, level_index: int) -> Dict[int, Cache]:
        """The instance map of one level (instance key → cache)."""
        return self._caches[level_index]

    def tlb_instances(self) -> Dict[int, Cache]:
        """The per-core TLBs (core → cache); empty without a TLB."""
        return self._tlbs or {}

    def _instance_for(self, level_index: int, core: int) -> Cache:
        return self._caches[level_index][self.instance_key(level_index, core)]

    def access(self, core: int, lines: np.ndarray,
               pre_collapsed_hits: int = 0) -> ServiceCounts:
        """Push ``lines`` (in order) through ``core``'s cache path.

        ``pre_collapsed_hits`` accounts for accesses removed upstream by
        consecutive-same-line compression; they are exact L1 hits and are
        credited to the innermost level without simulation.

        Returns the per-level service counts for this batch.
        """
        if not 0 <= core < self.spec.n_cores:
            raise ValueError(f"core {core} out of range 0..{self.spec.n_cores - 1}")
        counts = ServiceCounts()
        lines = np.asarray(lines, dtype=np.int64)
        if self._tlbs is not None and lines.size:
            pages = lines // self._lines_per_page
            keep = np.empty(pages.size, dtype=bool)
            keep[0] = True
            np.not_equal(pages[1:], pages[:-1], out=keep[1:])
            tlb = self._tlbs[core]
            missed_pages = tlb.access_lines(pages[keep])
            # collapsed repeats are guaranteed TLB hits
            repeats = int(pages.size - keep.sum())
            tlb.stats.accesses += repeats
            tlb.stats.hits += repeats
            counts.tlb_misses = int(missed_pages.size)
        pending = lines
        for li, level in enumerate(self.spec.levels):
            cache = self._instance_for(li, core)
            name = level.cache.name
            if li == 0 and pre_collapsed_hits:
                cache.stats.accesses += pre_collapsed_hits
                cache.stats.hits += pre_collapsed_hits
            if pending.size == 0:
                counts.per_level.setdefault(name, 0)
                if li == 0 and pre_collapsed_hits:
                    counts.per_level[name] += pre_collapsed_hits
                continue
            prefetchers = self._prefetchers[li]
            if prefetchers is not None:
                # timely-prefetch approximation: observe/install and
                # demand-access in small sub-batches so the prefetcher
                # never runs unboundedly ahead of the demand stream
                # (which would evict its own fills)
                pf = prefetchers[core]
                missed_parts = []
                evicted_all: list = []
                for start in range(0, pending.size, 16):
                    part = pending[start:start + 16]
                    pf.observe_and_fill(part, cache)
                    missed_parts.append(cache.access_lines(part))
                    if cache.track_evictions:
                        evicted_all.extend(cache.last_evicted)
                missed = np.concatenate(missed_parts)
                if cache.track_evictions:
                    cache.last_evicted = evicted_all
            else:
                missed = cache.access_lines(pending)
            if (self.spec.inclusive and li == len(self.spec.levels) - 1
                    and li > 0 and cache.last_evicted):
                self._back_invalidate(li, core, cache.last_evicted)
            served = pending.size - missed.size
            counts.per_level[name] = served + (
                pre_collapsed_hits if li == 0 else 0
            )
            pending = missed
        counts.mem = int(pending.size)
        return counts

    def _back_invalidate(self, llc_index: int, core: int,
                         evicted: list) -> None:
        """Inclusion enforcement: drop LLC-evicted lines from the inner
        caches of every core sharing that LLC instance."""
        level = self.spec.levels[llc_index]
        if level.scope == "machine":
            cores = range(self.spec.n_cores)
        elif level.scope == "socket":
            cps = self.spec.cores_per_socket
            socket = core // cps
            cores = range(socket * cps, (socket + 1) * cps)
        else:
            cores = (core,)
        lines = np.asarray(evicted, dtype=np.int64)
        for inner in range(llc_index):
            for c in cores:
                self._instance_for(inner, c).invalidate(lines)

    # -- counters ------------------------------------------------------------

    def level_stats(self, level_name: str) -> CacheStats:
        """Aggregate stats of all instances of the named level (TLB included)."""
        for li, level in enumerate(self.spec.levels):
            if level.cache.name == level_name:
                agg = CacheStats()
                for cache in self._caches[li].values():
                    agg = agg.merge(cache.stats)
                return agg
        if self._tlbs is not None and self.spec.tlb.name == level_name:
            agg = CacheStats()
            for tlb in self._tlbs.values():
                agg = agg.merge(tlb.stats)
            return agg
        raise KeyError(f"no level named {level_name!r}")

    def counter(self, name: str) -> int:
        """Read a PAPI-style counter defined by the platform spec."""
        try:
            level_name, kind = self.spec.counters[name]
        except KeyError:
            raise KeyError(
                f"counter {name!r} not defined for platform {self.spec.name!r}; "
                f"available: {sorted(self.spec.counters)}"
            ) from None
        stats = self.level_stats(level_name)
        return getattr(stats, kind)

    def all_counters(self) -> Dict[str, int]:
        """All platform counters as a dict (each level aggregated once)."""
        stats: Dict[str, CacheStats] = {}
        out = {}
        for name, (level_name, kind) in self.spec.counters.items():
            if level_name not in stats:
                stats[level_name] = self.level_stats(level_name)
            out[name] = getattr(stats[level_name], kind)
        return out

    def prefetch_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-level prefetcher totals: {level: {issued, installed}}."""
        out: Dict[str, Dict[str, int]] = {}
        for li, prefetchers in enumerate(self._prefetchers):
            if prefetchers is None:
                continue
            name = self.spec.levels[li].cache.name
            out[name] = {
                "issued": sum(p.issued for p in prefetchers.values()),
                "installed": sum(p.installed for p in prefetchers.values()),
            }
        return out

    def reset(self) -> None:
        """Empty all caches and zero all counters."""
        for instances in self._caches:
            for cache in instances.values():
                cache.reset()
        for prefetchers in self._prefetchers:
            if prefetchers is not None:
                for p in prefetchers.values():
                    p.reset()
        if self._tlbs is not None:
            for tlb in self._tlbs.values():
                tlb.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Machine({self.spec.name}, cores={self.spec.n_cores})"
