"""Tests for the elastic shard cluster (repro.serve.cluster)."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.artifacts import verify_artifact
from repro.resilience.faults import clear_faults, install_faults
from repro.serve import (
    BBoxQuery,
    FailureDetector,
    ShardCluster,
    ShardMap,
    compare_rebalance,
)
from repro.serve.store import ChunkStore

SHAPE = (16, 16, 16)
CHUNK = 4           # 4^3 chunk grid = 64 chunks
CPS = 4             # -> 16 segments
REPLICAS = 2
SHARDS = 4


@pytest.fixture(scope="module")
def dense():
    return np.arange(np.prod(SHAPE), dtype=np.float32).reshape(SHAPE)


def make_store(tmp_path, dense, name="store"):
    return ChunkStore.create(os.path.join(tmp_path, name), dense,
                             order="morton", chunk=CHUNK,
                             chunks_per_segment=CPS,
                             replicas=REPLICAS, shards=SHARDS)


@pytest.fixture(autouse=True)
def _clean_faults():
    clear_faults()
    yield
    clear_faults()


class TestShardMap:
    def test_initial_matches_static_placement(self, tmp_path, dense):
        store = make_store(tmp_path, dense)
        m = ShardMap.initial(store)
        for seg in range(store.n_segments):
            assert m.replicas_of(seg) == tuple(
                store.shard_of_segment(seg, r)
                for r in range(store.replicas))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_replicas_of_equals_the_ring_walk(self, data):
        ring = data.draw(st.integers(1, 9), label="ring")
        replicas = data.draw(st.integers(1, ring), label="replicas")
        n_segments = data.draw(st.integers(1, 40), label="n_segments")
        live = data.draw(st.sets(st.integers(0, ring - 1), min_size=1),
                         label="live")
        m = ShardMap(version=0, n_segments=n_segments, ring=ring,
                     replicas=replicas, live=tuple(sorted(live)))
        for seg in range(n_segments):
            # reference: walk the ring from the canonical primary
            start = seg * ring // n_segments
            walk = [(start + k) % ring for k in range(ring)]
            want = [s for s in walk if s in live][:replicas]
            assert m.replicas_of(seg) == tuple(want)
            if len(live) == ring:  # all live: the closed form
                assert want == [(start + r) % ring
                                for r in range(replicas)]

    def test_pure_function_of_live_set(self, tmp_path, dense):
        store = make_store(tmp_path, dense)
        a = ShardMap.for_members(store, 3, [0, 2, 3])
        b = ShardMap.for_members(store, 9, (3, 2, 0, 2))
        assert a.placements() == b.placements()

    def test_primaries_stay_contiguous_curve_ranges(self, tmp_path, dense):
        store = make_store(tmp_path, dense)
        for live in ([0, 1, 2, 3], [0, 2, 3], [1, 2]):
            m = ShardMap.for_members(store, 1, live)
            runs = m.primary_ranges()
            # contiguity: at most one run per live shard (+ ring wrap)
            assert len(runs) <= len(live) + 1
            # the runs tile the whole segment range in order
            assert runs[0][1] == 0 and runs[-1][2] == store.n_segments
            for (_, _, stop), (_, start, _) in zip(runs, runs[1:]):
                assert stop == start

    def test_dead_shard_placements_move_nothing_else(self, tmp_path,
                                                     dense):
        store = make_store(tmp_path, dense)
        old = ShardMap.initial(store)
        new = ShardMap.for_members(store, 1, [0, 2, 3])
        survivors = {p for p in old.placements() if p[1] != 1}
        assert survivors <= new.placements()
        assert all(shard != 1 for _, shard in new.placements())
        # only the dead shard's copies are re-placed
        assert len(new.moved_from(old)) \
            == len(old.placements()) - len(survivors)

    def test_fewer_live_than_replicas_degrades(self, tmp_path, dense):
        store = make_store(tmp_path, dense)
        m = ShardMap.for_members(store, 1, [2])
        assert all(m.replicas_of(s) == (2,)
                   for s in range(store.n_segments))

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardMap(version=0, n_segments=4, ring=4, replicas=2, live=())
        with pytest.raises(ValueError, match="outside ring"):
            ShardMap(version=0, n_segments=4, ring=4, replicas=2,
                     live=(0, 4))
        with pytest.raises(ValueError, match="sorted"):
            ShardMap(version=0, n_segments=4, ring=4, replicas=2,
                     live=(2, 0))


class TestCompareRebalance:
    def test_sfc_moves_at_most_cartesian(self, tmp_path, dense):
        store = make_store(tmp_path, dense)
        old = ShardMap.initial(store)
        for live in ([0, 2, 3], [0, 1, 3], [1, 2, 3]):
            new = ShardMap.for_members(store, 1, live)
            c = compare_rebalance(store, old, new)
            assert c.sfc_moved <= c.cartesian_moved, \
                f"live {live}: {c.sfc_moved} > {c.cartesian_moved}"
            assert c.old_live == (0, 1, 2, 3)
            assert c.new_live == tuple(live)


class TestFailureDetector:
    def test_suspect_then_dead_then_rejoin(self):
        det = FailureDetector(range(3), suspect_after=2, dead_after=4,
                              join_after=2)
        all_beat = {0, 1, 2}
        down = {0, 1}
        transitions = []
        for event in range(1, 5):
            transitions += det.observe(event, down)
        assert (2, "alive", "suspect") in transitions
        assert (2, "suspect", "dead") in transitions
        assert det.state[2] == "dead"
        # one heartbeat starts the join grace, not liveness
        assert det.observe(5, all_beat) == [(2, "dead", "joining")]
        assert 2 not in det.members()
        assert det.observe(6, all_beat) == [(2, "joining", "alive")]
        assert det.members() == {0, 1, 2}

    def test_flap_during_join_grace_goes_back_to_dead(self):
        det = FailureDetector(range(2), suspect_after=1, dead_after=2,
                              join_after=3)
        det.observe(1, {0})
        det.observe(2, {0})
        assert det.state[1] == "dead"
        det.observe(3, {0, 1})
        assert det.state[1] == "joining"
        assert det.observe(4, {0}) == [(1, "joining", "dead")]

    def test_suspect_recovers_inside_grace(self):
        det = FailureDetector(range(2), suspect_after=2, dead_after=6)
        det.observe(1, {0})
        det.observe(2, {0})
        assert det.state[1] == "suspect"
        assert 1 in det.members()  # grace: still counts for placement
        assert det.observe(3, {0, 1}) == [(1, "suspect", "alive")]

    def test_validation(self):
        with pytest.raises(ValueError, match="suspect_after"):
            FailureDetector(range(2), suspect_after=0)
        with pytest.raises(ValueError, match="dead_after"):
            FailureDetector(range(2), suspect_after=3, dead_after=3)
        with pytest.raises(ValueError, match="join_after"):
            FailureDetector(range(2), join_after=0)


class TestClusterLifecycle:
    def _cluster(self, tmp_path, dense, name, **kw):
        store = make_store(tmp_path, dense, name=name)
        kw.setdefault("cache", "lru:capacity=4")
        kw.setdefault("rebalance_budget", 8)
        return ShardCluster(store, **kw), store

    def test_requires_sharded_store(self, tmp_path, dense):
        flat = ChunkStore.create(os.path.join(tmp_path, "flat"), dense,
                                 order="morton", chunk=CHUNK,
                                 chunks_per_segment=CPS)
        with pytest.raises(ValueError, match=">= 2 shards"):
            ShardCluster(flat)
        store = make_store(tmp_path, dense, name="budget")
        with pytest.raises(ValueError, match="rebalance_budget"):
            ShardCluster(store, rebalance_budget=0)

    def test_kill_rebalances_and_serves_right_bytes(self, tmp_path,
                                                    dense):
        # budget 2 so the re-replication drain spans several ticks and
        # the under-replication spike is visible in the history
        cluster, store = self._cluster(tmp_path, dense, "kill",
                                       rebalance_budget=2)
        cluster.kill(1)
        # settle() alone would return at once: the detector has not
        # *observed* the outage yet — tick it through detection first
        for _ in range(cluster.detector.dead_after):
            cluster.tick()
        cluster.settle()
        assert cluster.deaths == 1
        assert cluster.rebalances == 1 and cluster.cutovers == 1
        assert cluster.map.version == 1
        assert cluster.map.live == (0, 2, 3)
        assert cluster.under_replicated() == 0
        # under-replication spiked on detection, then drained
        counts = [c for _, c in cluster.under_replicated_history]
        assert max(counts) > 0 and counts[-1] == 0
        # every copy the new map calls for is on disk and verifies
        for seg, shard in sorted(cluster.map.placements()):
            verify_artifact(store.path_on_shard(seg, shard),
                            quarantine=False)
        got = cluster.server.serve(BBoxQuery((0, 0, 0), SHAPE))
        assert got.ok and np.array_equal(got.data, dense)

    def test_rejoin_costs_zero_copy_moves(self, tmp_path, dense):
        cluster, store = self._cluster(tmp_path, dense, "rejoin")
        cluster.kill(2)
        for _ in range(cluster.detector.dead_after):
            cluster.tick()
        cluster.settle()
        moved = cluster.segments_moved
        cluster.revive(2)
        for _ in range(cluster.detector.join_after):
            cluster.tick()
        cluster.settle()
        assert cluster.joins == 1
        # outage != disk loss: the rejoined shard brings its old
        # copies back, so re-adopting them moves nothing
        assert cluster.segments_moved == moved
        assert cluster.map.placements() \
            == ShardMap.initial(store).placements()

    def test_flap_inside_suspect_grace_is_free(self, tmp_path, dense):
        cluster, _ = self._cluster(tmp_path, dense, "flap")
        cluster.kill(3)
        for _ in range(3):   # suspect_after=3: suspected, not dead
            cluster.tick()
        assert cluster.detector.state[3] == "suspect"
        cluster.revive(3)
        cluster.settle()
        assert cluster.deaths == 0
        assert cluster.rebalances == 0
        assert cluster.map.version == 0

    def test_schedule_drives_membership(self, tmp_path, dense):
        cluster, _ = self._cluster(tmp_path, dense, "sched",
                                   schedule=[(2, "kill", 1),
                                             (20, "join", 1)])
        cluster.settle()
        assert cluster.deaths == 1 and cluster.joins == 1
        assert cluster.events >= 20
        assert cluster.under_replicated() == 0

    def test_fault_plan_drives_membership(self, tmp_path, dense):
        install_faults("shard-flap@2:at=3:down=8")
        cluster, _ = self._cluster(tmp_path, dense, "faultplan")
        cluster.settle()
        assert cluster.deaths == 1 and cluster.joins == 1
        assert cluster.under_replicated() == 0

    def test_status_snapshot(self, tmp_path, dense):
        cluster, _ = self._cluster(tmp_path, dense, "status")
        cluster.tick()
        st = cluster.status()
        assert st["events"] == 1 and st["map_version"] == 0
        assert st["live"] == [0, 1, 2, 3]
        assert st["migrating"] is False
        assert st["under_replicated"] == 0


class TestScrubber:
    def test_repairs_at_rest_rot(self, tmp_path, dense):
        store = make_store(tmp_path, dense, name="rot")
        cluster = ShardCluster(store, cache="lru:capacity=4")
        seg = 0
        victim = cluster.map.replicas_of(seg)[1]
        path = store.path_on_shard(seg, victim)
        with open(path, "r+b") as fh:  # repro: noqa[RPC401] (inject rot)
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0xFF]))
        cluster.scrubber.run(2 * len(cluster.map.placements()))
        assert cluster.scrubber.repaired >= 1
        verify_artifact(path, quarantine=False)

    def test_catches_silent_divergence(self, tmp_path, dense):
        store = make_store(tmp_path, dense, name="diverge")
        cluster = ShardCluster(store, cache="lru:capacity=4")
        seg = 1
        primary, secondary = cluster.map.replicas_of(seg)[:2]
        good = store.read_replica_bytes(seg, [primary])
        # valid sidecar over the wrong bytes: reads would never notice
        store.write_replica_on(seg, secondary, good[::-1])
        cluster.scrubber.run(2 * len(cluster.map.placements()))
        assert cluster.scrubber.divergent >= 1
        assert store.read_replica_bytes(seg, [secondary]) == good
