"""Cross-check the server's cache counters against memsim — bit-for-bit.

The serving layer's headline numbers (hit rate, bytes touched) come
from its own LRU's counters.  Those counters are only as trustworthy
as the cache implementation, so this module replays the *exact*
segment-access stream the cache logged through two independent
implementations of the same policy:

1. the **Mattson stack-distance histogram**
   (:func:`repro.memsim.stackdist.stack_distance_histogram`) — the
   single-pass analytic backend, pricing the FA-LRU at the cache's
   capacity;
2. the **hierarchy simulator**
   (:class:`repro.memsim.hierarchy.Machine` over
   :func:`~repro.memsim.stackdist.fully_associative_spec`) — the
   event-driven model, counting ``L1_TCA`` / ``L1_TCM``.

All three (server, histogram, machine) must agree **exactly** — not
within tolerance.  A one-access discrepancy means one of the three has
a policy bug, and the mismatch report says which pair disagrees where.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..memsim.hierarchy import Machine
from ..memsim.stackdist import fully_associative_spec, stack_distance_histogram

__all__ = ["CacheCrossCheck", "cache_crosscheck", "assert_cache_consistent"]


@dataclass(frozen=True)
class CacheCrossCheck:
    """All three views of one access stream, plus the verdict."""
    accesses: int
    capacity: int
    server_hits: int
    server_misses: int
    stackdist_hits: int
    stackdist_misses: int
    machine_hits: int
    machine_misses: int

    @property
    def consistent(self) -> bool:
        return (self.server_hits == self.stackdist_hits == self.machine_hits
                and self.server_misses == self.stackdist_misses
                == self.machine_misses)

    def mismatches(self) -> List[str]:
        """Human-readable list of disagreeing pairs (empty when clean)."""
        out = []
        if self.server_hits != self.stackdist_hits:
            out.append(f"server hits {self.server_hits} != stack-distance "
                       f"hits {self.stackdist_hits}")
        if self.server_misses != self.stackdist_misses:
            out.append(f"server misses {self.server_misses} != "
                       f"stack-distance misses {self.stackdist_misses}")
        if self.server_hits != self.machine_hits:
            out.append(f"server hits {self.server_hits} != machine hits "
                       f"{self.machine_hits}")
        if self.server_misses != self.machine_misses:
            out.append(f"server misses {self.server_misses} != machine "
                       f"misses {self.machine_misses}")
        return out


def cache_crosscheck(cache) -> CacheCrossCheck:
    """Price ``cache.access_log`` through memsim and compare counters.

    ``cache`` is any object with ``access_log``, ``capacity``,
    ``hits``, ``misses`` (the serve caches).  An uncached server
    (capacity 0) is priced at capacity 1 minus its would-be hits —
    i.e. it is exempt from the histogram comparison and checked only
    for hits == 0.
    """
    log = np.asarray(cache.access_log, dtype=np.int64)
    n = int(log.size)
    capacity = int(cache.capacity)
    if capacity <= 0:
        # no cache: every access must have missed
        return CacheCrossCheck(
            accesses=n, capacity=0,
            server_hits=cache.hits, server_misses=cache.misses,
            stackdist_hits=0, stackdist_misses=n,
            machine_hits=0, machine_misses=n)
    hist = stack_distance_histogram(log)
    machine = Machine(fully_associative_spec(capacity))
    machine.access(0, log)
    return CacheCrossCheck(
        accesses=n, capacity=capacity,
        server_hits=cache.hits, server_misses=cache.misses,
        stackdist_hits=int(hist.hits(capacity)),
        stackdist_misses=int(hist.misses(capacity)),
        machine_hits=int(machine.counter("L1_TCA")
                         - machine.counter("L1_TCM")),
        machine_misses=int(machine.counter("L1_TCM")))


def assert_cache_consistent(cache) -> CacheCrossCheck:
    """:func:`cache_crosscheck`, raising on any disagreement."""
    check = cache_crosscheck(cache)
    if not check.consistent:
        raise AssertionError(
            "server cache counters disagree with memsim over "
            f"{check.accesses} accesses at capacity {check.capacity}: "
            + "; ".join(check.mismatches()))
    return check
