"""Trace-driven simulation engine with multi-thread interleaving.

Takes one :class:`~repro.memsim.trace.TraceChunk` per simulated thread
(plus that thread's core binding), interleaves the streams round-robin
in fixed quanta, and drives them through a :class:`Machine`.  Quantum
interleaving is what makes shared caches behave like shared caches:
threads pinned to the same core (MIC SMT) or socket (Ivy Bridge L3)
evict each other exactly as concurrent hardware threads would, up to
the quantum granularity.

The result bundles the platform counters, per-level service totals, and
the cost-model runtime, with optional extrapolation factors applied by
the experiment harness when it simulated only a sample of the work.

On LRU hierarchies a cold run need not be replayed at all: the engine
reconstructs the stream every cache instance would receive and prices
it from stack distances (:mod:`repro.memsim.stackdist`), with counters,
per-level totals and cycles equal to the replayer's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..instrument import trace as _trace
from .cache import CacheStats
from .cost import CostModel
from .hierarchy import Machine, PlatformSpec, ServiceCounts
from .stackdist import (
    HistogramStore,
    lru_hits,
    per_thread_histograms,
    prices_by_histogram,
    stack_ineligibility,
    stream_key,
)
from .trace import TraceChunk

__all__ = ["ThreadWork", "SimResult", "SimulationEngine"]

#: ``SimulationEngine`` backends: price when eligible, or always replay
_BACKENDS = ("auto", "scalar")

#: why ``backend="auto"`` replays a run on a platform it could price
_WARM_REASON = "reset=False continues the replayed cache contents"


@dataclass
class ThreadWork:
    """One simulated thread's entire memory traffic and compute weight."""

    thread_id: int
    core: int
    chunk: TraceChunk


@dataclass
class SimResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    counters : dict
        PAPI-style counters as wired by the platform spec, already
        multiplied by ``count_scale``.
    level_served : dict
        Requests served per level name (plus ``"MEM"``), scaled.
    runtime_seconds : float
        Cost-model runtime (slowest thread), multiplied by ``work_scale``.
    per_thread_cycles : dict
        Unscaled cycles per simulated thread id.
    n_accesses : int
        Total (pre-collapse) accesses simulated, unscaled.
    count_scale, work_scale : float
        Extrapolation factors recorded by the harness (1.0 when the full
        workload was simulated).
    """

    counters: Dict[str, float]
    level_served: Dict[str, float]
    runtime_seconds: float
    per_thread_cycles: Dict[int, float]
    n_accesses: int
    count_scale: float = 1.0
    work_scale: float = 1.0

    def scaled(self, count_scale: float, work_scale: float) -> "SimResult":
        """Apply extrapolation factors (see harness sampling docs)."""
        return SimResult(
            counters={k: v * count_scale for k, v in self.counters.items()},
            level_served={k: v * count_scale for k, v in self.level_served.items()},
            runtime_seconds=self.runtime_seconds * work_scale,
            per_thread_cycles=dict(self.per_thread_cycles),
            n_accesses=self.n_accesses,
            count_scale=self.count_scale * count_scale,
            work_scale=self.work_scale * work_scale,
        )


@dataclass
class _Batches:
    """The replayer's round-robin schedule, one entry per batch.

    Batches are in issue order: turn by turn, and within a turn in
    thread-list order.  Batch ``b`` hands lines ``start[b]`` to
    ``start[b] + count[b]`` of work ``work[b]``'s chunk to core
    ``core[b]`` for thread ``tid[b]``, with ``credit[b]`` collapsed
    hits (a thread's whole credit rides on its first batch, and a
    thread with credit but no lines still takes one empty turn).
    """

    work: np.ndarray
    start: np.ndarray
    count: np.ndarray
    credit: np.ndarray
    core: np.ndarray
    tid: np.ndarray

    @classmethod
    def round_robin(cls, works: Sequence[ThreadWork],
                    quantum: int) -> "_Batches":
        lens = np.array([w.chunk.lines.size for w in works], dtype=np.int64)
        credit = np.array([w.chunk.collapsed_hits for w in works],
                          dtype=np.int64)
        turns = -(-lens // quantum)
        turns[(lens == 0) & (credit > 0)] = 1
        work = np.repeat(np.arange(len(works)), turns)
        turn = np.arange(work.size) - np.repeat(np.cumsum(turns) - turns,
                                                turns)
        order = np.lexsort((work, turn))
        work, turn = work[order], turn[order]
        start = turn * quantum
        return cls(
            work=work, start=start,
            count=np.minimum(lens[work] - start, quantum),
            credit=np.where(turn == 0, credit[work], 0),
            core=np.array([w.core for w in works], dtype=np.int64)[work],
            tid=np.array([w.thread_id for w in works], dtype=np.int64)[work],
        )

    @property
    def size(self) -> int:
        """Number of batches."""
        return int(self.work.size)

    def core_stream(self, works: Sequence[ThreadWork],
                    core: int) -> Tuple[np.ndarray, np.ndarray]:
        """``core``'s lines in arrival order, and each line's batch."""
        sel = np.flatnonzero((self.core == core) & (self.count > 0))
        counts = self.count[sel]
        batch = np.repeat(sel.astype(np.int32), counts)
        owners = np.unique(self.work[sel])
        if owners.size == 1:  # one thread's batches are its chunk, in order
            return np.asarray(works[owners[0]].chunk.lines,
                              dtype=np.int64), batch
        chunks = [np.asarray(works[i].chunk.lines, dtype=np.int64)
                  for i in owners]
        sizes = np.array([c.size for c in chunks], dtype=np.int64)
        base = np.zeros(len(works), dtype=np.int64)
        base[owners] = np.cumsum(sizes) - sizes
        shift = base[self.work[sel]] + self.start[sel] \
            - (np.cumsum(counts) - counts)
        idx = np.repeat(shift, counts) + np.arange(int(counts.sum()))
        return np.concatenate(chunks)[idx], batch


def _merge(parts: List[Tuple[np.ndarray, np.ndarray]], n_batches: int):
    """One instance's arrivals: its cores' streams merged in issue order.

    Batch ids grow with issue order, a batch's lines arrive back to
    back and each batch belongs to one core, so a counting sort on the
    batch id is the replayer's order.  Parts are freed as they land.
    """
    if len(parts) == 1:
        return parts.pop()
    counts = [np.bincount(batch, minlength=n_batches) for _, batch in parts]
    sizes = sum(counts)
    first = np.cumsum(sizes) - sizes  # where each batch starts, merged
    total = int(sizes.sum())
    lines = np.empty(total, dtype=np.int64)
    batch = np.empty(total, dtype=np.int32)
    while parts:
        part_lines, part_batch = parts.pop()
        mine = counts.pop()
        # a line's slot: its batch's merged start plus its rank in the
        # batch, the batch's lines being one run of the part
        shift = first - (np.cumsum(mine) - mine)
        at = shift[part_batch] + np.arange(part_batch.size)
        lines[at] = part_lines
        batch[at] = part_batch
    return lines, batch


def _add_stats(stats: CacheStats, accesses: int, misses: int,
               fills: int) -> None:
    """Fold one priced stream into an instance's counters."""
    stats.accesses += accesses
    stats.hits += accesses - misses
    stats.misses += misses
    stats.evictions += misses - fills


class SimulationEngine:
    """Interleaves per-thread traces through a machine model.

    Parameters
    ----------
    spec : PlatformSpec
        The machine to instantiate.
    cost : CostModel, optional
        Cycle accounting; defaults to :class:`CostModel` defaults.
    quantum : int
        Lines per thread per round-robin turn.  Smaller quanta model
        finer-grained concurrency (more cross-thread interference);
        256 lines ≈ 16 KB of traffic per turn.
    backend : str
        How runs are simulated.  ``"auto"`` (the default) prices every
        cold run on an eligible platform — any non-inclusive hierarchy
        of LRU caches and TLB, without prefetchers — from stack
        distances (:mod:`repro.memsim.stackdist`): counters, per-level
        totals and cycles equal the replayer's bit for bit.
        Single-level fully-associative platforms are priced from
        per-thread histograms, exact in counts, with cycles summed per
        thread (equal to the replayer's up to float rounding).  It
        replays ineligible platforms and ``reset=False`` runs, recording
        why in the ``engine.replay`` span's ``fallback`` attribute.
        ``"scalar"`` always replays, one access at a time; it is the
        oracle the pricing is tested against.
    histogram_store : HistogramStore, optional
        Where histogram pricing memoizes per-stream histograms.  Pass
        a shared store so capacity sweeps re-price geometries without
        recomputing; defaults to a private store.
    """

    def __init__(self, spec: PlatformSpec, cost: Optional[CostModel] = None,
                 quantum: int = 256, seed: int = 0, backend: str = "auto",
                 histogram_store: Optional[HistogramStore] = None):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if backend not in _BACKENDS:
            raise ValueError(
                f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.spec = spec
        self.cost = cost or CostModel()
        self.quantum = quantum
        self.backend = backend
        #: why ``backend="auto"`` replays this platform (None when it
        #: prices, and for ``"scalar"``)
        self.stack_fallback_reason: Optional[str] = (
            stack_ineligibility(spec) if backend == "auto" else None)
        self.histogram_store = histogram_store or HistogramStore()
        # priced runs keep the machine too: it wires the counters and
        # holds every instance's stats
        self.machine = Machine(spec, seed=seed)
        #: what the last run left in the machine: None (nothing yet),
        #: "replayed" (cache contents) or "priced" (only stats)
        self._last_run: Optional[str] = None

    @property
    def uses_stack(self) -> bool:
        """True when cold runs are priced from stack distances."""
        return self.backend == "auto" and self.stack_fallback_reason is None

    def run(self, works: List[ThreadWork], reset: bool = True) -> SimResult:
        """Simulate all thread streams to completion and account costs.

        ``reset=False`` continues from the caches' current contents,
        which only replay has: it raises after a priced run, which
        leaves the caches empty.
        """
        for w in works:
            if not 0 <= w.core < self.spec.n_cores:
                raise ValueError(
                    f"thread {w.thread_id} bound to core {w.core}, but platform "
                    f"{self.spec.name} has {self.spec.n_cores} cores"
                )
        if self.uses_stack:
            if reset:
                return self._run_priced(works)
            if self._last_run == "priced":
                raise ValueError(
                    "stack pricing starts every run from cold caches and "
                    "cannot continue warm state; use reset=True or "
                    "backend='scalar'"
                )
        return self._run_replay(works, reset)

    def _run_replay(self, works: List[ThreadWork], reset: bool) -> SimResult:
        if reset:
            self.machine.reset()
        self._last_run = "replayed"
        fallback = self.stack_fallback_reason or (
            _WARM_REASON if self.uses_stack else None)
        attrs = {"fallback": fallback} if fallback else {}
        cycles: Dict[int, float] = {w.thread_id: 0.0 for w in works}
        served_total = ServiceCounts()
        with _trace.span("engine.replay", platform=self.spec.name,
                         threads=len(works), quantum=self.quantum,
                         **attrs) as sp:
            positions = [0] * len(works)
            pre_credit = [w.chunk.collapsed_hits for w in works]
            active = [w.chunk.lines.size > 0 or pre_credit[i] > 0
                      for i, w in enumerate(works)]
            q = self.quantum
            while any(active):
                for idx, w in enumerate(works):
                    if not active[idx]:
                        continue
                    pos = positions[idx]
                    batch = w.chunk.lines[pos:pos + q]
                    positions[idx] = pos + batch.size
                    credit = pre_credit[idx]
                    pre_credit[idx] = 0
                    counts = self.machine.access(w.core, batch,
                                                 pre_collapsed_hits=credit)
                    cycles[w.thread_id] += self.cost.access_cycles(counts,
                                                                   self.spec)
                    served_total = served_total.merge(counts)
                    if positions[idx] >= w.chunk.lines.size:
                        active[idx] = False
            sp.add("lines", sum(w.chunk.lines.size for w in works))
            sp.add("accesses", sum(w.chunk.n_accesses for w in works))
        level_served = {k: float(v) for k, v in served_total.per_level.items()}
        level_served["MEM"] = float(served_total.mem)
        return self._finish(works, cycles, level_served)

    def _finish(self, works: List[ThreadWork], cycles: Dict[int, float],
                level_served: Dict[str, float]) -> SimResult:
        """Add compute cycles and assemble the result."""
        with _trace.span("engine.cost") as sp:
            for w in works:
                cycles[w.thread_id] += self.cost.compute_cycles(w.chunk.n_ops)
            runtime = self.cost.seconds(max(cycles.values(), default=0.0),
                                        self.spec)
            result = SimResult(
                counters={k: float(v)
                          for k, v in self.machine.all_counters().items()},
                level_served=level_served,
                runtime_seconds=runtime,
                per_thread_cycles=cycles,
                n_accesses=sum(w.chunk.n_accesses for w in works),
            )
            sp.add("mem_lines", level_served["MEM"])
        return result

    # -- stack-distance pricing ----------------------------------------------

    def _run_priced(self, works: List[ThreadWork]) -> SimResult:
        """Price a cold run instead of replaying it.

        The machine's caches stay empty; every instance's stats are
        seeded, so counters and ``level_stats`` read as after replay.
        """
        if self._last_run is not None:
            self.machine.reset()
        self._last_run = "priced"
        with _trace.span("engine.replay", platform=self.spec.name,
                         threads=len(works), quantum=self.quantum,
                         backend="stack") as sp:
            batches = _Batches.round_robin(works, self.quantum)
            if prices_by_histogram(self.spec):
                cycles, totals = self._price_histograms(works, batches, sp)
            else:
                cycles, totals = self._price_levels(works, batches)
            sp.add("lines", sum(w.chunk.lines.size for w in works))
            sp.add("accesses", sum(w.chunk.n_accesses for w in works))
        # replay names the levels only once some batch has run
        level_served = ({k: float(v) for k, v in totals.items()}
                        if batches.size else {"MEM": 0.0})
        return self._finish(works, cycles, level_served)

    def _core_stream(self, works: List[ThreadWork], batches: _Batches,
                     core: int, tlb_misses: np.ndarray):
        """``core``'s arrivals, after pricing them through its TLB."""
        lines, batch = batches.core_stream(works, core)
        tlb = self.machine.tlb_instances().get(core)
        if tlb is not None:
            pages = lines // (tlb.config.line_bytes // self.spec.line_bytes)
            hit, fills = lru_hits(pages, tlb.config.n_sets, tlb.config.ways)
            missed = batch[~hit]
            _add_stats(tlb.stats, hit.size, missed.size, fills)
            tlb_misses += np.bincount(missed, minlength=batches.size)
        return lines, batch

    def _price_levels(self, works: List[ThreadWork], batches: _Batches):
        """Price a non-inclusive LRU hierarchy level by level.

        One core at a time, the core's threads, merged in issue order,
        feed its TLB (as pages) and then its private levels, each level
        getting the misses of the one inside it.  Every instance of a
        shared level then gets the misses of the cores it serves,
        merged in issue order — exactly what it would see under replay.
        Each batch's service counts go through the cost model's own
        arithmetic and are summed per thread in issue order, so cycles
        match replay bit for bit as well.
        """
        spec, machine = self.spec, self.machine
        levels = spec.levels
        n = batches.size
        # requests per batch that reach each level, memory last: every
        # line reaches the innermost level, and a level's misses the next
        reach = [batches.count] + [np.zeros(n, dtype=np.int64)
                                   for _ in levels]
        tlb_misses = np.zeros(n, dtype=np.int64)
        for w in works:  # collapsed repeats are L1 hits, never priced
            stats = machine.level_instances(0)[
                machine.instance_key(0, w.core)].stats
            stats.accesses += w.chunk.collapsed_hits
            stats.hits += w.chunk.collapsed_hits

        def price(li, key, stream):
            lines, batch = stream
            missed, fills = lru_hits(lines, levels[li].cache.n_sets,
                                     levels[li].cache.ways)
            np.logical_not(missed, out=missed)
            batch = batch[missed]
            # the outermost level's misses go to memory: only their
            # batches count
            lines = lines[missed] if li < len(levels) - 1 else None
            _add_stats(machine.level_instances(li)[key].stats, missed.size,
                       batch.size, fills)
            reach[li + 1] += np.bincount(batch, minlength=n)
            return lines, batch

        private = 0
        while private < len(levels) and levels[private].scope == "core":
            private += 1
        # every instance serves cores of a single instance of the
        # broadest level, so each such cluster of cores is priced on its
        # own: only its cores' miss streams are ever held at once
        breadth = ("core", "socket", "machine").index
        widest = max(range(len(levels)),
                     key=lambda li: breadth(levels[li].scope))
        clusters: Dict[int, List[int]] = {}
        for core in np.unique(batches.core[batches.count > 0]).tolist():
            clusters.setdefault(machine.instance_key(widest, core),
                                []).append(core)
        for cores in clusters.values():
            pending: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            for core in cores:
                stream = self._core_stream(works, batches, core, tlb_misses)
                for li in range(private):
                    stream = price(li, core, stream)
                pending[core] = stream
            for li in range(private, len(levels)):
                groups: Dict[int, List[int]] = {}
                for core in cores:
                    groups.setdefault(machine.instance_key(li, core),
                                      []).append(core)
                for key, members in groups.items():
                    lines, batch = price(li, key, _merge(
                        [pending.pop(core) for core in members], n))
                    if len(members) == 1:
                        pending[members[0]] = (lines, batch)
                    elif li < len(levels) - 1:
                        owner = batches.core[batch]
                        for core in members:
                            mine = owner == core
                            pending[core] = (lines[mine], batch[mine])
        served = [reach[li] - reach[li + 1] for li in range(len(levels))]
        served[0] += batches.credit
        per_batch = self.cost.batch_access_cycles(
            served, reach[-1], tlb_misses, spec)
        cycles = {w.thread_id: 0.0 for w in works}
        for tid in cycles:
            mine = per_batch[batches.tid == tid]
            if mine.size:  # a running sum: replay's order of additions
                cycles[tid] = float(np.cumsum(mine)[-1])
        totals = {level.cache.name: int(s.sum())
                  for level, s in zip(levels, served)}
        totals["MEM"] = int(reach[-1].sum())
        return cycles, totals

    def _price_histograms(self, works: List[ThreadWork], batches: _Batches,
                          sp) -> Tuple[Dict[int, float], Dict[str, int]]:
        """Price a single fully-associative LRU level from histograms.

        Each instance's stream gets per-thread stack-distance histograms
        (cached in :attr:`histogram_store`, so other capacities re-price
        without recomputing).  Counts are exact; cycles come from
        whole-thread totals, equal to replay's per-batch sums up to
        float rounding.
        """
        level = self.spec.levels[0].cache
        capacity_lines = level.n_lines
        instances = self.machine.level_instances(0)
        groups: Dict[int, List[ThreadWork]] = {}
        for w in works:
            groups.setdefault(self.machine.instance_key(0, w.core),
                              []).append(w)
        cycles: Dict[int, float] = {w.thread_id: 0.0 for w in works}
        totals = {level.name: 0, "MEM": 0}
        store_hits_before = self.histogram_store.hits
        for key, members in groups.items():
            credit_by_tid: Dict[int, int] = {}
            for w in members:
                credit_by_tid[w.thread_id] = (credit_by_tid.get(w.thread_id, 0)
                                              + w.chunk.collapsed_hits)
            cores = sorted({w.core for w in members if w.chunk.lines.size})
            hists = {}
            if cores:
                lines, batch = _merge([batches.core_stream(works, c)
                                       for c in cores], batches.size)
                tids = batches.tid[batch]
                hists = self.histogram_store.get_or_compute(
                    stream_key(lines, tids),
                    lambda lines=lines, tids=tids:
                        per_thread_histograms(lines, tids))
            inst_hits = 0
            inst_misses = 0
            inst_cold = 0
            for tid, credit in credit_by_tid.items():
                hist = hists.get(tid)
                if hist is not None:
                    t_hits = hist.hits(capacity_lines)
                    t_misses = hist.misses(capacity_lines)
                    inst_cold += hist.cold
                else:  # thread contributed only collapsed hits
                    t_hits = t_misses = 0
                counts = ServiceCounts(
                    per_level={level.name: t_hits + credit},
                    mem=t_misses)
                cycles[tid] += self.cost.access_cycles(counts, self.spec)
                inst_hits += t_hits + credit
                inst_misses += t_misses
            instances[key].stats = CacheStats(
                accesses=inst_hits + inst_misses,
                hits=inst_hits,
                misses=inst_misses,
                evictions=inst_misses - min(inst_cold, capacity_lines),
            )
            totals[level.name] += inst_hits
            totals["MEM"] += inst_misses
        sp.add("histogram_cache_hits",
               self.histogram_store.hits - store_hits_before)
        return cycles, totals
