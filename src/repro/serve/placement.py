"""Curve-range shard placement: the one ring formula.

A store's static placement and every version of an elastic cluster's
shard map are the same pure function of the live-shard set, so it
lives here, below both :class:`~repro.serve.store.ChunkStore` (whose
static placement is :meth:`ShardMap.initial`) and
:class:`~repro.serve.cluster.ShardCluster` (which versions it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, List, Sequence, Tuple

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """One version of the segment-range → shard placement.

    A pure function of the live set: no state, so any two nodes (or
    any two runs) with the same membership compute the same map.
    ``replicas_of`` walks the shard ring from the canonical primary
    ``seg * ring // n_segments`` and takes the first ``replicas`` live
    shards — with all shards live that *is* the store's static
    placement (primaries partition the curve order into contiguous
    ranges, replica ``r`` sits ``r`` shards further around the ring),
    and on a membership change only segments whose walk crossed the
    changed shard move.
    """

    version: int
    n_segments: int
    ring: int                  # total shard slots (store.shards)
    replicas: int
    live: Tuple[int, ...]      # sorted live shard ids

    def __post_init__(self):
        if not self.live:
            raise ValueError("a shard map needs at least one live shard")
        if any(not 0 <= s < self.ring for s in self.live):
            raise ValueError(f"live shards {self.live} outside ring "
                             f"0..{self.ring - 1}")
        if tuple(sorted(set(self.live))) != self.live:
            raise ValueError(f"live shards must be sorted and unique, "
                             f"got {self.live}")

    @classmethod
    def for_members(cls, store, version: int,
                    members: Sequence[int]) -> "ShardMap":
        """The map ``version`` for live set ``members`` over ``store``
        (anything with ``n_segments``, ``shards`` and ``replicas``)."""
        return cls(version=version, n_segments=store.n_segments,
                   ring=store.shards, replicas=store.replicas,
                   live=tuple(sorted(set(int(s) for s in members))))

    @classmethod
    def initial(cls, store) -> "ShardMap":
        """Version 0: every shard live (the static placement)."""
        return cls.for_members(store, 0, range(store.shards))

    @cached_property
    def _by_slot(self) -> Tuple[Tuple[int, ...], ...]:
        # a segment's copies depend on it only through its start slot,
        # so one walk per ring slot covers every segment
        live = set(self.live)
        want = min(self.replicas, len(self.live))
        table = []
        for start in range(self.ring):
            walk = [(start + k) % self.ring for k in range(self.ring)]
            table.append(tuple([s for s in walk if s in live][:want]))
        return tuple(table)

    def replicas_of(self, seg: int) -> Tuple[int, ...]:
        """Shards holding segment ``seg``, primary first."""
        return self._by_slot[
            seg * self.ring // max(1, self.n_segments) % self.ring]

    def primary_of(self, seg: int) -> int:
        return self.replicas_of(seg)[0]

    @cached_property
    def _placements(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((seg, s) for seg in range(self.n_segments)
                         for s in self.replicas_of(seg))

    def placements(self) -> FrozenSet[Tuple[int, int]]:
        """Every ``(segment, shard)`` copy this map calls for."""
        return self._placements

    def primary_ranges(self) -> List[Tuple[int, int, int]]:
        """Contiguous primary runs as ``(shard, start, stop)`` triples.

        The SFC property made visible: each run is a contiguous span
        of the curve order, so the list has at most one run per live
        shard (plus a possible ring wrap).
        """
        runs: List[Tuple[int, int, int]] = []
        for seg in range(self.n_segments):
            p = self.primary_of(seg)
            if runs and runs[-1][0] == p and runs[-1][2] == seg:
                runs[-1] = (p, runs[-1][1], seg + 1)
            else:
                runs.append((p, seg, seg + 1))
        return runs

    def moved_from(self, old: "ShardMap") -> FrozenSet[Tuple[int, int]]:
        """Copies this map calls for that ``old`` did not — the
        segment copies a rebalance must (re)place."""
        return self.placements() - old.placements()
