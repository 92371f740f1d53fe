"""Elastic shard cluster: membership, rebalancing, anti-entropy.

PR 8 made one store survive faults; this module makes a *cluster* of
simulated shards survive shards dying and joining while queries keep
flowing — ROADMAP item 5's decomposition, operated.  Three pieces, all
deterministic and clock-free so a chaos run replays exactly:

* :class:`FailureDetector` — event-count heartbeats.  Time is the
  cluster's **event counter** (one tick per served query), never a
  wall clock: a shard that misses ``suspect_after`` ticks of
  heartbeats is *suspect*, ``dead_after`` ticks *dead*, and a
  returning shard walks a ``join_after``-tick *joining* grace before
  it is live again — the same denial-counting discipline as the
  PR-8 circuit breaker.
* :class:`~repro.serve.placement.ShardMap` — a **versioned**,
  pure-function placement: given the live-shard set, segment ``s``'s
  copies sit on the first ``replicas`` live shards walking the ring
  from the canonical primary ``s * ring // n_segments``.  With every
  shard live it *is* the store's static placement, and primaries remain
  **contiguous curve-segment ranges** — the SFC property the paper's
  argument rides on (Walker & Skjellum, arXiv:2307.07828): a
  membership change moves only the dead/joined shard's contiguous
  ranges, which :func:`compare_rebalance` pins against a
  block-Cartesian strawman re-decomposition
  (:class:`~repro.distributed.decomposition.CartesianGridPartition`).
* :class:`ShardCluster` — ties them together.  Queries are served
  from the *current* map (old version stays valid until cutover)
  while the rebalancer re-replicates under-replicated segments from
  healthy siblings, a budgeted number of copies per tick; a
  background :class:`Scrubber` re-verifies sidecars across replicas
  and repairs divergence under its own budget.  Every byte served is
  sidecar-verified — migration never serves a wrong byte.

Membership chaos is driven by ``shard-kill`` / ``shard-join`` /
``shard-flap`` fault specs keyed on the event counter
(:mod:`repro.resilience.faults`), or an explicit ``schedule``.
``repro chaos cluster`` is the CI gate: rolling kills plus a rejoin
must serve 100% of queries byte-identical to the undisturbed run with
the exact memsim crosscheck intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..distributed.decomposition import CartesianGridPartition
from ..instrument import trace as _trace
from ..resilience import artifacts as _artifacts
from ..resilience import faults as _faults
from .placement import ShardMap
from .reliability import ReliabilityConfig
from .server import VolumeServer
from .store import ChunkStore

__all__ = [
    "FailureDetector",
    "RebalanceComparison",
    "Scrubber",
    "ShardCluster",
    "compare_rebalance",
]


# -- strawman comparison ------------------------------------------------------

@dataclass(frozen=True)
class RebalanceComparison:
    """Data movement of one membership change, SFC vs block-Cartesian.

    ``sfc_moved`` counts segment copies the curve-range map places
    anew; ``cartesian_moved`` counts the chunk copies a rigid
    block-Cartesian re-decomposition of the same chunk grid moves,
    in segment-equivalents (chunks / chunks_per_segment) so the two
    schemes price movement in the same unit.
    """

    old_live: Tuple[int, ...]
    new_live: Tuple[int, ...]
    sfc_moved: int
    cartesian_moved: float


def _cartesian_placements(grid_shape: Sequence[int], ring: int,
                          replicas: int, live: Sequence[int]
                          ) -> Set[Tuple[int, int]]:
    """Chunk copies a block-Cartesian decomposition places on ``live``.

    The strawman: cut the chunk grid into a rigid
    :class:`~repro.distributed.decomposition.CartesianGridPartition`
    box grid (rank ``i`` = the i-th live shard), replicas on ring
    successors *within* the live set.  The box topology is a function
    of the rank count, so every membership change recuts the grid and
    most chunks change owner — exactly why contiguous curve ranges
    move less.
    """
    live = sorted(live)
    grid = tuple(int(g) for g in grid_shape)
    part = CartesianGridPartition(grid, len(live))
    gx, gy, gz = grid
    want = min(replicas, len(live))
    placed: Set[Tuple[int, int]] = set()
    for bk in range(gz):
        for bj in range(gy):
            for bi in range(gx):
                chunk = bi + gx * (bj + gy * bk)
                i = part.rank_of(bi, bj, bk)
                for r in range(want):
                    placed.add((chunk, live[(i + r) % len(live)]))
    return placed


def compare_rebalance(store: ChunkStore, old: ShardMap,
                      new: ShardMap) -> RebalanceComparison:
    """Price one membership change under both placement schemes."""
    sfc = len(new.moved_from(old))
    cart_old = _cartesian_placements(store.grid_shape, old.ring,
                                     old.replicas, old.live)
    cart_new = _cartesian_placements(store.grid_shape, new.ring,
                                     new.replicas, new.live)
    cart = len(cart_new - cart_old) / float(store.chunks_per_segment)
    return RebalanceComparison(old_live=old.live, new_live=new.live,
                               sfc_moved=sfc, cartesian_moved=cart)


# -- failure detection --------------------------------------------------------

class FailureDetector:
    """Deterministic, clock-free per-shard failure detection.

    Time is an **event counter** the cluster advances; a heartbeat is
    a shard's presence in the tick's heartbeat set.  States walk
    ``alive → suspect → dead → joining → alive``: ``suspect_after``
    missed ticks suspects a shard (grace — it still serves reads and
    counts for replication), ``dead_after`` kills it (its segments
    are re-replicated), and a returning shard must heartbeat
    ``join_after`` consecutive ticks before it is live again, so one
    flapping heartbeat never whipsaws the map.  No wall clock
    anywhere: the same event sequence walks the same state sequence,
    which is what lets the chaos gate pin byte-identical replays.
    """

    STATES = ("alive", "suspect", "dead", "joining")

    def __init__(self, shards: Sequence[int], *, suspect_after: int = 3,
                 dead_after: int = 6, join_after: int = 2):
        if suspect_after < 1:
            raise ValueError(f"suspect_after must be >= 1, "
                             f"got {suspect_after}")
        if dead_after <= suspect_after:
            raise ValueError(f"dead_after ({dead_after}) must exceed "
                             f"suspect_after ({suspect_after})")
        if join_after < 1:
            raise ValueError(f"join_after must be >= 1, got {join_after}")
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self.join_after = join_after
        self.state: Dict[int, str] = {int(s): "alive" for s in shards}
        self.last_seen: Dict[int, int] = {int(s): 0 for s in shards}
        self._join_streak: Dict[int, int] = {}

    def observe(self, event: int,
                heartbeats: Set[int]) -> List[Tuple[int, str, str]]:
        """Advance one tick; returns ``(shard, old, new)`` transitions."""
        transitions: List[Tuple[int, str, str]] = []

        def move(shard: int, new: str) -> None:
            old = self.state[shard]
            if old != new:
                self.state[shard] = new
                transitions.append((shard, old, new))

        for shard in sorted(self.state):
            if shard in heartbeats:
                state = self.state[shard]
                if state == "dead":
                    self._join_streak[shard] = 1
                    move(shard, "joining")
                elif state == "joining":
                    streak = self._join_streak.get(shard, 0) + 1
                    self._join_streak[shard] = streak
                    if streak >= self.join_after:
                        move(shard, "alive")
                elif state == "suspect":
                    move(shard, "alive")  # recovered inside the grace
                self.last_seen[shard] = event
            else:
                gap = event - self.last_seen[shard]
                state = self.state[shard]
                if state == "joining":
                    # a flap during the join grace goes straight back
                    move(shard, "dead")
                elif state == "alive" and gap >= self.suspect_after:
                    move(shard, "suspect")
                elif state == "suspect" and gap >= self.dead_after:
                    move(shard, "dead")
        return transitions

    def members(self) -> Set[int]:
        """Shards the map may place copies on (alive + the suspect
        grace; joining shards wait out their streak)."""
        return {s for s, st in self.state.items()
                if st in ("alive", "suspect")}


# -- anti-entropy -------------------------------------------------------------

class Scrubber:
    """Budget-bounded background re-verification of replica sidecars.

    A deterministic cursor walks the current map's placements on
    shards the detector believes *alive*, ``budget`` copies per tick:
    a copy that fails verification is quarantined and repaired from a
    live sibling (``serve.scrub_repaired``), and a copy that verifies
    against *its own* sidecar but disagrees with the primary's digest
    — silent divergence no read would catch until routed there — is
    rewritten from the primary (``serve.scrub_divergent``).  Every
    full lap over the placements bumps ``serve.scrub_passes``.
    """

    def __init__(self, cluster: "ShardCluster"):
        self.cluster = cluster
        self._cursor = 0
        # the sorted work list, rebuilt only when its inputs change
        self._work: List[Tuple[int, int]] = []
        self._work_of: Optional[Tuple[ShardMap, FrozenSet[int]]] = None
        self.checked = 0
        self.repaired = 0
        self.divergent = 0
        self.passes = 0

    def run(self, budget: int) -> None:
        cl = self.cluster
        if budget <= 0:
            return
        alive = frozenset(s for s, st in cl.detector.state.items()
                          if st == "alive")
        if self._work_of != (cl.map, alive):
            self._work = sorted((seg, s) for seg, s in cl.map.placements()
                                if s in alive)
            self._work_of = (cl.map, alive)
        work = self._work
        if not work:
            return
        for _ in range(budget):
            if self._cursor >= len(work):
                self._cursor = 0
                self.passes += 1
                _trace.add("serve.scrub_passes", 1)
            seg, shard = work[self._cursor]
            self._cursor += 1
            self._check(seg, shard, alive)

    def _check(self, seg: int, shard: int, alive: FrozenSet[int]) -> None:
        cl = self.cluster
        store = cl.store
        self.checked += 1
        _trace.add("serve.scrub_checked", 1)
        placements = cl.map.replicas_of(seg)
        peers = [s for s in placements if s != shard and s in alive]
        try:
            record = store.verify_copy(seg, shard)
        except (_artifacts.ArtifactIntegrityError, OSError):
            self._repair_from(seg, shard, peers)
            return
        primary = placements[0]
        if shard == primary or primary not in alive:
            return
        mine = record.get("sha256") if record else None
        prec = _artifacts.read_sidecar(store.path_on_shard(seg, primary))
        theirs = prec.get("sha256") if prec else None
        if mine is not None and theirs is not None and mine != theirs:
            self.divergent += 1
            _trace.add("serve.scrub_divergent", 1)
            self._repair_from(seg, shard, [primary])

    def _repair_from(self, seg: int, shard: int,
                     sources: List[int]) -> None:
        cl = self.cluster
        if not sources:
            return  # no live sibling; the read path's rebuild is the net
        try:
            payload = cl.store.read_replica_bytes(seg, sources)
        except (_artifacts.ArtifactIntegrityError,
                _faults.InjectedFault, OSError):
            return  # sibling unhealthy too; a later lap retries
        cl.store.write_replica_on(seg, shard, payload)
        cl._place(seg, (shard,))
        self.repaired += 1
        _trace.add("serve.scrub_repaired", 1)


# -- the cluster --------------------------------------------------------------

class ShardCluster:
    """A simulated elastic shard cluster over one :class:`ChunkStore`.

    Wraps a :class:`~repro.serve.server.VolumeServer` whose cache-miss
    reads route through the cluster's **versioned shard map** instead
    of the static placement.  One :meth:`tick` per served query
    advances the event counter, applies any scheduled membership
    chaos, runs the failure detector, performs up to
    ``rebalance_budget`` rebalance moves and ``scrub_budget`` scrub
    checks — all deterministic, so a run replays bit-for-bit.

    Shard outages are *process* outages, not disk loss: a killed
    shard's files persist, so :attr:`placed` (the on-disk copy map)
    keeps them and a rejoining shard contributes its old copies back
    at zero moves — the scrubber, not the mover, re-validates them.

    ``schedule`` — explicit ``(event, "kill"|"join", shard)`` triples;
    ``shard-kill``/``shard-join``/``shard-flap`` fault specs keyed on
    ``at=`` compose with it through ``REPRO_FAULTS``.
    """

    def __init__(self, store: ChunkStore, *,
                 cache="lru:capacity=64",
                 reliability: Optional[ReliabilityConfig] = None,
                 suspect_after: int = 3, dead_after: int = 6,
                 join_after: int = 2,
                 rebalance_budget: int = 4, scrub_budget: int = 0,
                 schedule: Optional[Sequence[Tuple[int, str, int]]] = None):
        if store.shards < 2:
            raise ValueError(
                f"a cluster needs >= 2 shards, got {store.shards}")
        if rebalance_budget < 1:
            raise ValueError(f"rebalance_budget must be >= 1, "
                             f"got {rebalance_budget}")
        self.store = store
        self.detector = FailureDetector(
            range(store.shards), suspect_after=suspect_after,
            dead_after=dead_after, join_after=join_after)
        self.map = store.placement
        self.target: Optional[ShardMap] = None
        self.rebalance_budget = rebalance_budget
        self.scrub_budget = scrub_budget
        self.schedule = sorted(schedule or [])
        # ground-truth outages; shared with the store so reads routed
        # to a downed shard fail exactly like a shard-down fault
        self.down = store.down_shards
        # on-disk copies per segment (survives outages; see docstring)
        self.placed: Dict[int, Set[int]] = {
            seg: set(self.map.replicas_of(seg))
            for seg in range(store.n_segments)}
        self._pending_moves: List[Tuple[int, int]] = []
        self.events = 0
        self.suspects = 0
        self.deaths = 0
        self.joins = 0
        self.rebalances = 0
        self.cutovers = 0
        self.segments_moved = 0
        self.comparisons: List[RebalanceComparison] = []
        #: (event, under-replicated segment count) after every tick
        self.under_replicated_history: List[Tuple[int, int]] = []
        # (members, count) of the last recount; _place drops it
        self._under_replicated: Optional[Tuple[Set[int], int]] = None
        self.scrubber = Scrubber(self)
        self.server = VolumeServer(store, cache=cache,
                                   reliability=reliability,
                                   reader=self._read_segment)

    # -- membership ground truth ---------------------------------------------

    def kill(self, shard: int) -> None:
        """Take ``shard`` down (simulated outage; its disk persists)."""
        if not 0 <= shard < self.store.shards:
            raise ValueError(f"shard {shard} outside 0.."
                             f"{self.store.shards - 1}")
        self.down.add(shard)

    def revive(self, shard: int) -> None:
        """Bring ``shard`` back up (it must re-earn liveness)."""
        self.down.discard(shard)

    # -- the tick -------------------------------------------------------------

    def tick(self) -> None:
        """Advance one event: chaos, detection, rebalance, scrub."""
        self.events += 1
        _trace.add("serve.cluster_ticks", 1)
        for action, shard in self._actions_at(self.events):
            if action == "kill":
                self.kill(shard)
            elif action == "join":
                self.revive(shard)
            else:
                raise ValueError(f"unknown schedule action {action!r}")
        heartbeats = {s for s in range(self.store.shards)
                      if s not in self.down}
        membership_changed = False
        for shard, old, new in self.detector.observe(self.events,
                                                     heartbeats):
            if new == "suspect":
                self.suspects += 1
                _trace.add("serve.cluster_suspects", 1)
            elif new == "dead":
                self.deaths += 1
                _trace.add("serve.cluster_deaths", 1)
                membership_changed = True
            elif new == "alive" and old == "joining":
                self.joins += 1
                _trace.add("serve.cluster_joins", 1)
                membership_changed = True
        if membership_changed:
            self._start_rebalance()
        self._advance_rebalance()
        self.scrubber.run(self.scrub_budget)
        self.under_replicated_history.append(
            (self.events, self.under_replicated()))

    def _actions_at(self, event: int) -> List[Tuple[str, int]]:
        actions = [(a, s) for e, a, s in self.schedule if e == event]
        plan = _faults.active_plan()
        if plan.specs:
            actions.extend(plan.cluster_actions(event))
        return actions

    # -- rebalancing ----------------------------------------------------------

    def _start_rebalance(self) -> None:
        """Retarget the map at the detector's membership.

        The serving map stays at its current version until the moves
        drain — queries keep routing off the old map mid-migration —
        and a second membership change simply retargets: pending
        moves are recomputed against the newer map.
        """
        base = self.target.version if self.target is not None \
            else self.map.version
        target = ShardMap.for_members(self.store, base + 1,
                                      self.detector.members())
        if target.placements() == self.map.placements():
            # back to the serving placement (a flap that recovered):
            # cancel any half-done migration instead of versioning
            self.target = None
            self._pending_moves = []
            return
        comparison = compare_rebalance(self.store, self.map, target)
        self.comparisons.append(comparison)
        self.rebalances += 1
        _trace.add("serve.cluster_rebalances", 1)
        _trace.add("serve.cluster_moves_sfc", comparison.sfc_moved)
        _trace.add("serve.cluster_moves_cartesian",
                   comparison.cartesian_moved)
        self.target = target
        self._pending_moves = sorted(
            (seg, shard) for seg, shard in target.placements()
            if shard not in self.placed[seg])

    def _advance_rebalance(self) -> None:
        """Do up to ``rebalance_budget`` copy moves, then cut over."""
        if self.target is None:
            return
        budget = self.rebalance_budget
        while budget > 0 and self._pending_moves:
            seg, dest = self._pending_moves[0]
            self._move_copy(seg, dest)
            self._pending_moves.pop(0)
            budget -= 1
        if not self._pending_moves:
            self.map = self.target
            self.target = None
            self.cutovers += 1
            _trace.add("serve.cluster_cutovers", 1)

    def _move_copy(self, seg: int, dest: int) -> None:
        """Re-replicate one segment copy onto ``dest`` from a healthy
        sibling (verified read → durable write), origin as last resort."""
        sources = sorted(s for s in self.placed[seg]
                         if s != dest and s not in self.down)
        try:
            payload = self.store.read_replica_bytes(seg, sources) \
                if sources else None
        except (_artifacts.ArtifactIntegrityError,
                _faults.InjectedFault, OSError):
            payload = None
        if payload is None:
            # every sibling copy is unreachable or rotted: the origin
            # is the truth (counted as a rebuild, like the read path)
            assert self.target is not None
            targets = [s for s in self.target.replicas_of(seg)
                       if s not in self.down] or [dest]
            self.store.rebuild_segment(seg, shards=targets)
            self._place(seg, targets)
        else:
            self.store.write_replica_on(seg, dest, payload)
            self._place(seg, (dest,))
        self.segments_moved += 1
        _trace.add("serve.cluster_segments_moved", 1)

    # -- the routed read path -------------------------------------------------

    def _read_segment(self, seg: int, policy) -> np.ndarray:
        """The server's miss loader: map-routed, failover-protected.

        Candidates are the serving map's placements (old version until
        cutover) followed by any other on-disk copies — so a query
        mid-migration fails over from a dead primary to whichever
        sibling or freshly-moved copy verifies.  The store's read path
        does the verification, read-repair and (last-resort) rebuild;
        a wrong byte is never returned.
        """
        shards = self.map.replicas_of(seg)
        placed = self.placed[seg]
        if len(placed) != len(shards) or not placed.issuperset(shards):
            # on-disk copies the map does not name are tried last
            shards += tuple(sorted(placed.difference(shards)))
        rebuilt_before = self.store.segments_rebuilt
        arr = self.store.read_segment(seg, policy=policy, locations=shards)
        if self.store.segments_rebuilt != rebuilt_before:
            # the store rebuilt onto the reachable candidates
            self._place(seg, [s for s in shards if s not in self.down])
        return arr

    def _place(self, seg: int, shards: Sequence[int]) -> None:
        """Record new on-disk copies of ``seg`` on ``shards``.

        The one place :attr:`placed` grows (it never shrinks), so it is
        also where the under-replication count goes stale.
        """
        self.placed[seg].update(shards)
        self._under_replicated = None

    # -- health ---------------------------------------------------------------

    def under_replicated(self) -> int:
        """Segments with fewer live copies than the replication goal.

        Counted against the detector's view (alive + suspect): a
        not-yet-detected outage is not yet *known* under-replication,
        which is exactly the detection-lag window the history graphs.
        The count is kept until the members or :attr:`placed` change.
        """
        members = self.detector.members()
        memo = self._under_replicated
        if memo is not None and memo[0] == members:
            return memo[1]
        want = min(self.store.replicas, max(1, len(members)))
        count = 0
        for seg in range(self.store.n_segments):
            if len(self.placed[seg] & members) < want:
                count += 1
        self._under_replicated = (members, count)
        return count

    def status(self) -> Dict[str, object]:
        """One-glance cluster health (the CLI's summary dict)."""
        return {
            "events": self.events,
            "map_version": self.map.version,
            "live": sorted(self.detector.members()),
            "states": dict(sorted(self.detector.state.items())),
            "migrating": self.target is not None,
            "pending_moves": len(self._pending_moves),
            "under_replicated": self.under_replicated(),
            "deaths": self.deaths,
            "joins": self.joins,
            "rebalances": self.rebalances,
            "cutovers": self.cutovers,
            "segments_moved": self.segments_moved,
            "scrub_checked": self.scrubber.checked,
            "scrub_repaired": self.scrubber.repaired,
            "scrub_divergent": self.scrubber.divergent,
        }

    # -- sessions -------------------------------------------------------------

    def _last_scheduled_event(self) -> int:
        last = max((e for e, _, _ in self.schedule), default=0)
        plan = _faults.active_plan()
        for spec in plan.specs:
            if spec.mode in _faults.CLUSTER_MODES and spec.at >= 0:
                end = spec.at
                if spec.mode == "shard-flap":
                    end += max(1, spec.down)
                last = max(last, end)
        return last

    def settle(self, max_ticks: int = 256) -> None:
        """Tick until migrations drain and the detector is quiescent.

        Bounded by ``max_ticks`` so a mis-scheduled scenario fails
        loudly (still migrating) instead of spinning forever.
        """
        for _ in range(max_ticks):
            detector_busy = any(
                st in ("suspect", "joining")
                for st in self.detector.state.values())
            if self.target is None and not self._pending_moves \
                    and not detector_busy \
                    and self.events >= self._last_scheduled_event():
                return
            self.tick()
        raise RuntimeError(
            f"cluster failed to settle in {max_ticks} ticks: "
            f"{self.status()}")

    def serve_session(self, queries: Sequence[object]) -> List[object]:
        """Serve ``queries`` in order, one tick per query, then settle.

        Sequential on purpose: the event counter *is* the clock, and
        one query per tick makes the interleaving of chaos, detection,
        rebalancing and serving fully deterministic.  The wrapping
        ``serve.cluster`` span carries the membership/rebalance attrs
        the manifest's serve section picks up.
        """
        with _trace.span("serve.cluster", shards=self.store.shards,
                         replicas=self.store.replicas,
                         n_queries=len(queries)) as sp:
            results = []
            for q in queries:
                self.tick()
                results.append(self.server.serve(q))
            self.settle()
            ok = sum(1 for r in results if r.ok)
            sp.set("ok", ok)
            sp.set("rejected", len(results) - ok)
            sp.set("events", self.events)
            sp.set("map_version", self.map.version)
            sp.set("deaths", self.deaths)
            sp.set("joins", self.joins)
            sp.set("rebalances", self.rebalances)
            sp.set("cutovers", self.cutovers)
            sp.set("segments_moved", self.segments_moved)
            sp.set("under_replicated", self.under_replicated())
        return results
