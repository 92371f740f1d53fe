"""Reliability tests: replication, failover, deadlines, breakers, shedding."""

from __future__ import annotations

import asyncio
import glob
import os

import numpy as np
import pytest

from repro.instrument import trace
from repro.instrument.manifest import build_manifest, write_manifest
from repro.resilience.artifacts import sidecar_path, verify_artifact
from repro.resilience.faults import clear_faults, install_faults
from repro.resilience.policy import RetryPolicy
from repro.serve import (
    BBoxQuery,
    ChunkStore,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    QueryRejected,
    ReliabilityConfig,
    VolumeServer,
    cache_crosscheck,
)

SHAPE = (16, 16, 16)


@pytest.fixture()
def dense():
    rng = np.random.default_rng(5)
    return rng.random(SHAPE).astype(np.float32)


@pytest.fixture()
def replicated(tmp_path, dense):
    """A 2-way replicated store over 4 shards (32 segments, 8 per shard)."""
    return ChunkStore.create(os.path.join(tmp_path, "s"), dense, chunk=4,
                             chunks_per_segment=2, replicas=2, shards=4)


@pytest.fixture(params=["serve", "query"])
def answer(request):
    """Answer one query through the sync or the async entry point."""
    if request.param == "serve":
        return lambda server, q: server.serve(q)
    return lambda server, q: asyncio.run(server.query(q))


@pytest.fixture(autouse=True)
def _no_faults():
    clear_faults()
    yield
    clear_faults()


def corrupt(path: str) -> None:
    with open(path, "r+b") as fh:  # repro: noqa[RPC401]
        fh.seek(17)
        byte = fh.read(1)
        fh.seek(17)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestReplicatedStore:
    def test_create_writes_every_replica_verified(self, replicated, dense):
        assert (replicated.replicas, replicated.shards) == (2, 4)
        for seg in range(replicated.n_segments):
            paths = {replicated._replica_path(seg, r) for r in range(2)}
            assert len(paths) == 2
            for p in paths:
                assert "shard-" in p
                verify_artifact(p, quarantine=False)  # raises if bad
        assert np.array_equal(replicated.read_bbox((0, 0, 0), SHAPE), dense)

    def test_replicas_land_on_distinct_shards(self, replicated):
        for seg in range(replicated.n_segments):
            shards = {replicated.shard_of_segment(seg, r) for r in range(2)}
            assert len(shards) == 2
        # primaries partition the curve order into contiguous ranges
        primaries = [replicated.shard_of_segment(s)
                     for s in range(replicated.n_segments)]
        assert primaries == sorted(primaries)

    def test_more_replicas_than_shards_rejected(self, tmp_path, dense):
        with pytest.raises(ValueError, match="distinct shards"):
            ChunkStore.create(os.path.join(tmp_path, "bad"), dense, chunk=4,
                              chunks_per_segment=2, replicas=3, shards=2)

    def test_open_preserves_replication(self, replicated, dense):
        reopened = ChunkStore.open(replicated.path, origin=dense)
        assert (reopened.replicas, reopened.shards) == (2, 4)
        assert np.array_equal(reopened.read_segment(3),
                              replicated.read_segment(3))

    def test_unreplicated_store_keeps_flat_layout(self, tmp_path, dense):
        store = ChunkStore.create(os.path.join(tmp_path, "flat"), dense,
                                  chunk=4, chunks_per_segment=2)
        assert os.path.dirname(store._replica_path(0, 0)) == store.path
        assert not glob.glob(os.path.join(store.path, "shard-*"))


class TestFailover:
    def test_corrupt_primary_fails_over_and_read_repairs(self, replicated,
                                                         dense):
        want = replicated.read_segment(3).copy()
        primary = replicated._replica_path(3, 0)
        corrupt(primary)
        got = replicated.read_segment(3)
        assert np.array_equal(got, want)
        assert replicated.failovers == 1
        assert replicated.read_repairs == 1
        assert replicated.segments_rebuilt == 0
        # the repaired replica verifies against its fresh sidecar, and
        # the corrupt evidence was quarantined aside
        verify_artifact(primary, quarantine=False)
        assert glob.glob(primary + ".corrupt*")

    def test_all_replicas_corrupt_rebuilds_from_origin(self, replicated,
                                                       dense):
        want = replicated.read_segment(2).copy()
        for r in range(2):
            corrupt(replicated._replica_path(2, r))
        assert np.array_equal(replicated.read_segment(2), want)
        assert replicated.segments_rebuilt == 1
        assert replicated.read_repairs == 0
        for r in range(2):
            verify_artifact(replicated._replica_path(2, r), quarantine=False)

    def test_missing_primary_fails_over_and_read_repairs(self, replicated,
                                                         dense):
        # the data file and its sidecar are both gone (what a scrub
        # quarantine with no live sibling leaves behind)
        primary = replicated._replica_path(5, 0)
        os.remove(primary)
        os.remove(sidecar_path(primary))
        want = np.frombuffer(replicated._segment_payload(dense, 5),
                             dtype=np.float32)
        got = replicated.read_segment(5)
        assert np.array_equal(got.ravel(), want)
        assert replicated.failovers == 1
        assert replicated.read_repairs == 1
        assert replicated.segments_rebuilt == 0
        verify_artifact(primary, quarantine=False)

    def test_missing_primary_does_not_fail_the_query(self, replicated,
                                                     dense):
        primary = replicated._replica_path(5, 0)
        os.remove(primary)
        os.remove(sidecar_path(primary))
        server = VolumeServer(replicated, cache="lru:capacity=4",
                              reliability=ReliabilityConfig())
        got = server.serve(BBoxQuery((0, 0, 0), SHAPE))
        assert got.ok, got
        assert np.array_equal(got.data, dense)
        assert replicated.failovers == 1
        assert replicated.read_repairs == 1
        verify_artifact(primary, quarantine=False)

    def test_shard_down_fault_fails_over(self, replicated):
        want = replicated.read_segment(5).copy()
        install_faults(f"shard-down@{replicated.shard_of_segment(5, 0)}")
        got = replicated.read_segment(5)
        assert np.array_equal(got, want)
        assert replicated.failovers == 1
        # the downed shard's bytes are fine — no repair, no rebuild
        assert replicated.read_repairs == 0
        assert replicated.segments_rebuilt == 0

    def test_all_replicas_corrupt_without_origin_raises(self, tmp_path,
                                                        dense):
        path = os.path.join(tmp_path, "s")
        ChunkStore.create(path, dense, chunk=4, chunks_per_segment=2,
                          replicas=2, shards=4)
        store = ChunkStore.open(path)  # no origin attached
        for r in range(2):
            corrupt(store._replica_path(0, r))
        with pytest.raises(RuntimeError, match="without an origin"):
            store.read_segment(0)


class TestCircuitBreaker:
    def test_state_walk(self):
        br = CircuitBreaker(0, threshold=2, probe_after=3)
        assert br.allow() and br.state == "closed"
        br.record_failure()
        assert br.state == "closed"  # one failure is not a pattern
        br.record_failure()
        assert br.state == "open"
        assert not br.allow() and not br.allow()  # denials 1, 2
        assert br.allow() and br.state == "half-open"  # denial 3 = probe
        br.record_failure()  # failed probe re-trips immediately
        assert br.state == "open"
        assert not br.allow() and not br.allow()
        assert br.allow() and br.state == "half-open"
        br.record_success()
        assert br.state == "closed" and br.allow()

    def test_success_resets_consecutive_failures(self):
        br = CircuitBreaker(0, threshold=3)
        br.record_failure()
        br.record_failure()
        br.record_success()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"

    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(0, threshold=0)
        with pytest.raises(ValueError, match="probe_after"):
            CircuitBreaker(0, probe_after=0)


class TestDeadline:
    def test_boundless_deadline_never_expires(self):
        d = Deadline(None)
        assert d.remaining() == float("inf")
        d.check()  # no raise

    def test_expired_deadline_raises(self):
        d = Deadline(1e-9)
        with pytest.raises(DeadlineExceeded, match="deadline"):
            d.check()

    def test_deadline_miss_returns_typed_rejection(self, replicated, answer):
        server = VolumeServer(
            replicated, cache="lru:capacity=4",
            reliability=ReliabilityConfig(
                deadline_s=1e-9,
                retry=RetryPolicy(max_retries=1, backoff_base=0.0)))
        res = answer(server, BBoxQuery((0, 0, 0), SHAPE))
        assert isinstance(res, QueryRejected)
        assert not res.ok
        assert res.reason == "deadline"
        assert res.attempts == 2  # a fresh deadline per attempt, both spent

    def test_config_validation(self):
        with pytest.raises(ValueError, match="deadline_s"):
            ReliabilityConfig(deadline_s=0.0)
        with pytest.raises(ValueError, match="max_inflight"):
            ReliabilityConfig(max_inflight=0)


class TestRetries:
    def test_transient_failure_retried_to_success(self, replicated,
                                                  monkeypatch, answer):
        server = VolumeServer(
            replicated, cache="lru:capacity=4",
            reliability=ReliabilityConfig(
                retry=RetryPolicy(max_retries=2, backoff_base=0.0)))
        real = server._load_segment
        calls = {"n": 0}

        def flaky(seg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient read failure")
            return real(seg)

        monkeypatch.setattr(server, "_load_segment", flaky)
        res = answer(server, BBoxQuery((0, 0, 0), (8, 8, 8)))
        assert res.ok
        assert res.attempts == 2
        # the cache records an access only once its load returns, so
        # the failed load left no trace and the log still replays
        # exactly through memsim
        check = cache_crosscheck(server.cache)
        assert check.consistent, check.mismatches()

    def test_permanent_failure_not_retried(self, replicated, monkeypatch,
                                           answer):
        server = VolumeServer(
            replicated, cache="lru:capacity=4",
            reliability=ReliabilityConfig(
                retry=RetryPolicy(max_retries=3, backoff_base=0.0)))

        def broken(seg):
            raise ValueError("deterministically wrong")

        monkeypatch.setattr(server, "_load_segment", broken)
        res = answer(server, BBoxQuery((0, 0, 0), (8, 8, 8)))
        assert isinstance(res, QueryRejected)
        assert res.reason == "error"
        assert res.attempts == 1  # ValueError is permanent: no retry
        assert "ValueError" in res.error


class TestAdmission:
    def test_overload_sheds_typed_never_hangs(self, replicated, monkeypatch):
        server = VolumeServer(
            replicated, cache="lru:capacity=4",
            reliability=ReliabilityConfig(
                max_inflight=1,
                retry=RetryPolicy(max_retries=1, backoff_base=0.01)))

        def always_failing(seg):
            raise RuntimeError("store on fire")

        monkeypatch.setattr(server, "_load_segment", always_failing)
        queries = [BBoxQuery((0, 0, 0), (8, 8, 8)) for _ in range(5)]
        results = server.serve_session(queries, concurrency=4)
        # every query got a typed answer, 1:1 with the workload
        assert len(results) == 5
        assert all(isinstance(r, QueryRejected) for r in results)
        # query 0 held the only admission slot across its backoff await;
        # the rest arrived over the bound and were shed immediately
        assert results[0].reason == "error"
        assert [r.reason for r in results[1:]] == ["shed"] * 4
        assert all("admission queue full" in r.error for r in results[1:])

    def test_inflight_bound_releases_after_completion(self, replicated):
        server = VolumeServer(
            replicated, cache="lru:capacity=4",
            reliability=ReliabilityConfig(max_inflight=1))
        queries = [BBoxQuery((0, 0, 0), (8, 8, 8)) for _ in range(4)]
        results = server.serve_session(queries, concurrency=2)
        # healthy queries never suspend mid-flight, so the single slot
        # turns over and nothing is shed
        assert all(r.ok for r in results)


class TestManifest:
    def test_serve_section_rolls_up_reliability_counters(self, tmp_path,
                                                         replicated):
        corrupt(replicated._replica_path(3, 0))
        server = VolumeServer(replicated, cache="lru:capacity=4",
                              reliability=ReliabilityConfig())
        tracer = trace.enable()
        try:
            results = server.serve_session(
                [BBoxQuery((0, 0, 0), SHAPE) for _ in range(3)],
                concurrency=2)
        finally:
            trace.disable()
        assert all(r.ok for r in results)
        manifest = build_manifest(tracer)
        stats = manifest["serve"]
        assert stats["ok"] == 3
        assert stats["rejected"] == 0
        assert stats["reliability_failovers"] >= 1
        assert stats["reliability_read_repairs"] >= 1
        assert stats["p99_ms"] >= stats["p50_ms"] > 0
        # the manifest (serve section included) passes schema validation
        write_manifest(os.path.join(tmp_path, "m.json"), manifest)
