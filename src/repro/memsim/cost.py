"""Cycle-level cost model: turn service counts into simulated runtime.

The paper reports wall-clock runtime and argues it tracks memory-system
utilization.  Our substitute makes that coupling explicit: each access
costs the latency of the level that served it (DRAM latency is divided
by the platform's memory-level parallelism), and each kernel operation
adds a fixed compute cost.  Runtime is the slowest thread's cycle count
divided by the clock — the shape of layout-vs-layout comparisons then
emerges entirely from where the accesses were served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .hierarchy import PlatformSpec, ServiceCounts

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Parameters converting service counts to cycles.

    Attributes
    ----------
    cpi_compute : float
        Compute cycles charged per kernel *operation* (the kernels report
        an op count per work item: stencil taps for the filter, sample
        compositing steps for the renderer).
    issue_cycles_per_access : float
        Pipeline cost of issuing a load, charged on top of the serving
        level's latency.  Keeps runtimes sane when everything hits L1.
    """

    cpi_compute: float = 1.0
    issue_cycles_per_access: float = 0.5

    def access_cycles(self, counts: ServiceCounts, spec: PlatformSpec) -> float:
        """Cycles spent on memory for one batch of service counts."""
        latencies: Dict[str, float] = {
            level.cache.name: level.latency_cycles for level in spec.levels
        }
        cycles = 0.0
        for name, served in counts.per_level.items():
            cycles += served * latencies[name]
        cycles += counts.mem * spec.mem_latency_cycles / spec.mem_parallelism
        cycles += counts.total * self.issue_cycles_per_access
        cycles += counts.tlb_misses * spec.tlb_miss_cycles
        return cycles

    def batch_access_cycles(self, served: Sequence[np.ndarray],
                            mem: np.ndarray, tlb_misses: np.ndarray,
                            spec: PlatformSpec) -> np.ndarray:
        """:meth:`access_cycles` of many batches at once.

        ``served`` holds one integer array per level of ``spec``, inner
        to outer, of the requests each batch had served there; ``mem``
        and ``tlb_misses`` are per batch as well.  Entry ``b`` equals
        :meth:`access_cycles` of batch ``b`` bit for bit: the same
        float operations in the same order.
        """
        cycles = np.zeros(mem.shape)
        total = mem.copy()
        for count, level in zip(served, spec.levels):
            cycles += count * level.latency_cycles
            total += count
        cycles += mem * spec.mem_latency_cycles / spec.mem_parallelism
        cycles += total * self.issue_cycles_per_access
        cycles += tlb_misses * spec.tlb_miss_cycles
        return cycles

    def compute_cycles(self, n_ops: int) -> float:
        """Cycles spent on arithmetic for ``n_ops`` kernel operations."""
        return n_ops * self.cpi_compute

    def seconds(self, cycles: float, spec: PlatformSpec) -> float:
        """Convert cycles to seconds at the platform clock."""
        return cycles / (spec.freq_ghz * 1e9)
