"""Hot-segment cache for the volume server, priced by memsim.

The server keeps recently-read segments in memory behind a
fully-associative LRU — the same replacement policy
:mod:`repro.memsim` prices analytically.  That is the point: the
cache's hit/miss counters are **cross-checked bit-for-bit** against
the Mattson stack-distance histogram of the very access stream it
served (:mod:`repro.serve.validate`), so the serving layer's headline
hit rates inherit the simulator's credibility instead of asking to be
trusted.

Configuration is a spec string in the one registry grammar
(:func:`repro.core.registry.parse_spec`)::

    make_cache("lru:capacity=64")   # 64 segments hot
    make_cache("none")              # uncached baseline
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

import numpy as np

from ..core.registry import parse_spec

__all__ = ["LRUCache", "NoCache", "make_cache"]


class _Counted:
    """The exact counters and the access log every serve cache keeps."""

    capacity = 0

    def __init__(self):
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.access_log: List[int] = []

    def counters(self) -> dict:
        """Counter snapshot (plain dict, JSON-friendly)."""
        return {"accesses": self.accesses, "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions,
                "capacity": self.capacity, "resident": len(self)}


class LRUCache(_Counted):
    """Fully-associative LRU over segment arrays, with exact counters.

    ``capacity`` is in *segments* (cache "lines"), matching the
    granularity :func:`repro.memsim.stackdist.fully_associative_spec`
    prices.  Counters: ``accesses``, ``hits``, ``misses``,
    ``evictions``; ``access_log`` records the segment id of every
    access in order — the stream the memsim cross-check replays.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, "
                             f"got {capacity}")
        super().__init__()
        self.capacity = int(capacity)
        self._slots: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def get(self, key: int, load: Callable[[int], np.ndarray],
            n: int = 1) -> np.ndarray:
        """Return the cached value for ``key``, loading on miss.

        One call stands for ``n`` back-to-back accesses of ``key`` (a
        run of chunks in one segment) and counts exactly as ``n`` calls
        would: the first access may miss, the rest hit.  The access is
        recorded only after ``load`` returns, so a failed load leaves
        the counters and the log as they were.
        """
        key = int(key)
        slots = self._slots
        if key in slots:
            slots.move_to_end(key)
            value = slots[key]
            self.hits += n
        else:
            value = load(key)
            slots[key] = value
            if len(slots) > self.capacity:
                slots.popitem(last=False)
                self.evictions += 1
            self.misses += 1
            self.hits += n - 1
        self.accesses += n
        self.access_log.extend([key] * n)
        return value

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LRUCache(capacity={self.capacity}, hits={self.hits}, "
                f"misses={self.misses})")


class NoCache(_Counted):
    """The uncached baseline: every access loads; the log still records.

    Keeping the same interface (and the same ``access_log``) means the
    memsim cross-check and the bench's utilization metrics work
    identically with caching disabled.
    """

    def get(self, key: int, load: Callable[[int], np.ndarray],
            n: int = 1) -> np.ndarray:
        """Load ``key`` once per access: ``n`` loads for a run of ``n``."""
        key = int(key)
        for _ in range(n):
            value = load(key)
            self.accesses += 1
            self.misses += 1
            self.access_log.append(key)
        return value

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NoCache(accesses={self.accesses})"


def make_cache(spec: Optional[str]):
    """Build a cache from a spec string: ``"lru:capacity=N"`` or ``"none"``.

    ``None`` and ``"none"`` both mean uncached.  The grammar is the
    registry's (:func:`~repro.core.registry.parse_spec`), so cache
    configs travel through CLI flags exactly like layout specs.
    """
    if spec is None:
        return NoCache()
    name, kwargs = parse_spec(spec, what="cache spec")
    if name == "none":
        if kwargs:
            raise ValueError(f"cache spec 'none' takes no kwargs, "
                             f"got {sorted(kwargs)}")
        return NoCache()
    if name == "lru":
        extra = set(kwargs) - {"capacity"}
        if extra:
            raise ValueError(f"cache spec 'lru' accepts capacity=<int>; "
                             f"unknown kwargs {sorted(extra)}")
        return LRUCache(int(kwargs.get("capacity", 64)))
    raise ValueError(f"unknown cache spec {name!r}; known: ['lru', 'none']")
