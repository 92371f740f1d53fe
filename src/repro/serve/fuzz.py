"""Deterministic asyncio interleaving fuzzer for the serving path.

The server's correctness argument is *interleaving independence*:
because each query's processing is synchronous inside one trace span
and shared state is only mutated there, any scheduling of the ready
queue must serve byte-identical payloads and identical geometry
counters.  The RPC5xx static rules reason about that property from the
await-marked CFG; this module is their runtime twin — it *perturbs*
the scheduler on purpose and lets a harness assert the results did
not move.

:class:`ScheduleFuzzer` is a seeded source of extra yield points.
:meth:`VolumeServer.session` accepts it via the ``perturb`` hook and
awaits :meth:`ScheduleFuzzer.point` at its safe scheduling seams (query
arrival, and post-admission before processing).  Each call inserts
0–2 ``await asyncio.sleep(0)`` round-trips chosen by a private
``random.Random(seed)``, so a given seed reproduces one exact
interleaving — a divergence found by ``repro chaos fuzz`` can be
replayed under a debugger with the same seed.

The hook deliberately *cannot* be invoked between the admission check
and the in-flight increment (the server keeps that pair atomic
between yield points); the fuzzer explores schedules the design
permits, not ones it already forbids.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict

__all__ = ["ScheduleFuzzer"]


class ScheduleFuzzer:
    """Seeded scheduling perturbation: extra event-loop yields on demand.

    Independent of wall clock: only ``asyncio.sleep(0)`` is used, so
    the perturbation reorders the ready queue without introducing
    timing races, and the same seed always produces the same schedule
    for the same workload.
    """

    def __init__(self, seed: int, max_yields: int = 2):
        self.seed = int(seed)
        self.max_yields = int(max_yields)
        self._rng = random.Random(self.seed)
        #: hook-point tag -> times hit (observability for the harness)
        self.hits: Dict[str, int] = {}
        self.yields = 0

    async def point(self, tag: str) -> None:
        """One named scheduling seam: yield the loop 0..max_yields times."""
        self.hits[tag] = self.hits.get(tag, 0) + 1
        for _ in range(self._rng.randint(0, self.max_yields)):
            self.yields += 1
            await asyncio.sleep(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScheduleFuzzer(seed={self.seed}, yields={self.yields}, "
                f"hits={self.hits})")
