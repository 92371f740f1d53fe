"""Chaos scenarios: the failure stories the sweep and serving layers survive.

``repro chaos SCENARIO [TRACE]`` runs one scenario and exits 0 when it
held, 1 (printing every problem) when it did not:

* ``smoke`` — a bilateral batch under a worker crash, a hang reaped by
  the per-cell timeout and a corrupt payload, with retries: results
  identical to an undisturbed serial run;
* ``disk`` — the same batch journaled while the disk fails under it,
  then resumed over the damaged journal;
* ``serve`` — a replicated store serving through a dead shard, rotted
  replicas and a slow read: payloads bit-identical, memsim exact;
* ``cluster`` — an elastic shard cluster through two rolling kills and
  a rejoin, then a scrub that must catch injected rot and divergence;
* ``fuzz`` — served bytes must not depend on the event-loop schedule,
  over 8 scheduling seeds plus a replay.

Each scenario is a plain function of its trace path that returns its
problem list (empty means it held); :func:`run_scenario` runs one by
name.  A traced scenario records only its faulted run — the undisturbed
reference runs stay out of the trace, so the manifest's tallies describe
the chaos alone — to ``TRACE`` plus ``TRACE.manifest.json``, which
``repro trace validate TRACE`` cross-checks; ``fuzz`` writes no
trace.  :func:`run_scenario` suspends the ambient tracer and fault plan
while the scenario runs and puts them back afterwards, so running one
in-process neither records into nor leaks past its caller.  See
docs/RESILIENCE.md and docs/SERVING.md.

``repro cluster`` builds, serves and judges its session through the same
helpers as the ``cluster`` scenario: :func:`cluster_stores`,
:func:`serve_cluster` and :func:`check_served`.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from .data.io import read_raw, write_raw
from .data.synthetic import combustion_field
from .experiments import (
    BilateralCell,
    RetryPolicy,
    default_ivybridge,
    run_cells_parallel,
)
from .instrument import trace
from .instrument.manifest import build_manifest, write_manifest
from .resilience.artifacts import ArtifactIntegrityError, verify_artifact
from .resilience.faults import active_plan, clear_faults, install_faults
from .serve import (
    ChunkStore,
    ReliabilityConfig,
    ScheduleFuzzer,
    ShardCluster,
    VolumeServer,
    arrival_times,
    cache_crosscheck,
    generate_queries,
)

__all__ = [
    "SCENARIOS",
    "check_served",
    "cluster_stores",
    "faults_installed",
    "payload_digests",
    "run_scenario",
    "serve_cluster",
]

#: smoke: one worker crash, one hang (reaped by the timeout), one
#: corrupt payload
SMOKE_FAULTS = "crash@1,hang@3:seconds=600,corrupt@4"

#: disk: cell 2 OOMs once; journal appends 1 / 3 / 5 hit ENOSPC, a torn
#: write and at-rest bit rot (write indexes count the serial run's six
#: journal records 0..5)
DISK_FAULTS = "oom@2,enospc@1,torn@3,bitflip@5"

#: per-cell deadline: generous for a 48^3 cell, tiny next to the hang
CELL_TIMEOUT = 15.0
CELL_RETRY = RetryPolicy(max_retries=2, backoff_base=0.05)

#: serve and cluster store geometry: 48^3 / 8^3 chunks / 4 per segment
#: = 54 segments, 2 replicas ringed over the shards (primaries are
#: contiguous curve ranges)
SHAPE = (48, 48, 48)
STORE = {"order": "hilbert", "chunk": 8, "chunks_per_segment": 4,
         "replicas": 2}
SEED = 7
CACHE = "lru:capacity=8"

#: serve: shard 1 is dead for the whole run; read indexes count live
#: replica reads in the deterministic serve order (time_scale=0), so:
#: read 0 is seg 1's primary on shard 0 — its only sibling lives on the
#: dead shard, so corruption forces an origin rebuild; read 24 is seg
#: 43's primary on shard 3 — its sibling on shard 0 is healthy, so
#: corruption forces failover + read-repair; read 10 (a failover read
#: already) is also stalled for 60 ms, which the deadline path must
#: absorb
SERVE_FAULTS = ("shard-down@1,segread-corrupt@0,"
                "segread-slow@10:seconds=0.06,segread-corrupt@24")
SERVE_SHARDS = 4
SERVE_QUERIES = 24
SERVE_CONCURRENCY = 4
#: generous per-query budget: the injected slowness must fail over,
#: not blow the deadline
SERVE_RELIABILITY = ReliabilityConfig(
    deadline_s=10.0, retry=RetryPolicy(max_retries=3, backoff_base=0.01))

#: cluster: the membership storyline, keyed on the cluster event
#: counter (one event per query): rolling kills of 2 of the 6 shards,
#: then shard 2 rejoins mid-session
CLUSTER_FAULTS = "shard-kill@2:at=8,shard-kill@4:at=20,shard-join@2:at=32"
CLUSTER_SHARDS = 6
CLUSTER_QUERIES = 36
#: detector pacing: suspect after 3 missed events, dead after 6, 2 clean
#: heartbeats to complete a join; 4 copy moves and 2 scrub checks a tick
CLUSTER_KNOBS = {
    "reliability": ReliabilityConfig(
        retry=RetryPolicy(max_retries=3, backoff_base=0.01)),
    "suspect_after": 3, "dead_after": 6, "join_after": 2,
    "rebalance_budget": 4, "scrub_budget": 2}

#: fuzz: a smaller unreplicated store under its own seeded workload
FUZZ_SHAPE = (32, 32, 32)
FUZZ_SEED = 11
FUZZ_QUERIES = 24
FUZZ_CONCURRENCY = 4
FUZZ_SEEDS = 8


# -- shared helpers -----------------------------------------------------------

@contextmanager
def faults_installed(spec: str):
    """Run the block under the fault plan ``spec`` (``""``: none), then
    put the ambient plan back, even if the block raises."""
    prior = active_plan().to_spec()
    if spec:
        install_faults(spec)
    else:
        clear_faults()
    try:
        yield
    finally:
        if prior:
            install_faults(prior)
        else:
            clear_faults()


@contextmanager
def _undisturbed():
    """Run the block with no tracer and no fault plan; the ambient ones
    are back afterwards, even if the block raises."""
    prior = trace.activate(None)
    try:
        with faults_installed(""):
            yield
    finally:
        trace.activate(prior)


@contextmanager
def _traced(scenario: str, trace_path: str, faults: str, section: str):
    """Run the block under ``faults`` with a fresh tracer, then write the
    trace and its manifest and print the manifest's ``section``.

    Yields a dict that holds that section once the block is done.  The
    ambient tracer and fault plan are back even if the block raises.
    """
    stats: Dict[str, object] = {}
    tracer = trace.Tracer()
    start = time.monotonic()
    with faults_installed(faults):
        prior = trace.activate(tracer)
        try:
            yield stats
        finally:
            trace.activate(prior)
    elapsed = time.monotonic() - start
    tracer.write_jsonl(trace_path)
    manifest = build_manifest(
        tracer, extra={"argv": ["chaos", scenario], "faults": faults})
    write_manifest(trace_path + ".manifest.json", manifest)
    stats.update(manifest.get(section, {}))
    print(f"survived in {elapsed:.1f}s; {section} stats: "
          + ", ".join(f"{k}={v}" for k, v in sorted(stats.items())))
    print(f"trace: {trace_path} (manifest beside it)")


def payload_digests(results) -> List[str]:
    """SHA-256 of every answered query's payload, in query order."""
    return [hashlib.sha256(np.ascontiguousarray(r.data).tobytes())
            .hexdigest() for r in results if r.ok]


def check_served(results, want: Optional[List[str]],
                 cache=None) -> List[str]:
    """What is wrong with a served session (empty: nothing).

    Every query must be answered; with ``want`` (the
    :func:`payload_digests` of an undisturbed run) every payload must
    match it; with ``cache`` the cache's counters must equal what memsim
    prices its access log at.
    """
    problems = []
    rejected = [r for r in results if not r.ok]
    if rejected:
        problems.append(
            f"{len(rejected)} queries went unanswered: "
            + "; ".join(f"{r.reason}: {r.error}" for r in rejected[:3]))
    elif want is not None:
        got = payload_digests(results)
        if got != want:
            bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
            problems.append(f"served bytes differ from the undisturbed "
                            f"run at queries {bad}")
    if cache is not None:
        check = cache_crosscheck(cache)
        if not check.consistent:
            problems.append("cache counters diverged from memsim: "
                            + "; ".join(check.mismatches()))
    return problems


def _unverified(store: ChunkStore, shard_map) -> int:
    """Copies ``shard_map`` calls for that are missing or fail their
    sidecar."""
    bad = 0
    for seg, shard in sorted(shard_map.placements()):
        try:
            verify_artifact(store.path_on_shard(seg, shard),
                            quarantine=False)
        except (ArtifactIntegrityError, OSError):
            bad += 1
    return bad


def _describe(store: ChunkStore) -> str:
    return (f"store: {store.shape} / chunk {store.chunk_shape} / "
            f"{store.n_segments} segments, {store.replicas} replicas on "
            f"{store.shards} shards, order {store.order}")


# -- cell batches: smoke and disk ---------------------------------------------

def _cells() -> List[BilateralCell]:
    # 48^3: tens of milliseconds per cell.  The trace check does not
    # depend on the size: the phases tile each cell at any length
    base = BilateralCell(platform=default_ivybridge(64), shape=(48, 48, 48),
                         n_threads=2, stencil="r1", pencils_per_thread=1)
    return [replace(base, layout=layout, n_threads=n)
            for n in (2, 4, 8) for layout in ("array", "morton")]


def _reference_rows(cells: List[BilateralCell]):
    print(f"reference run: {len(cells)} cells, serial, no faults")
    return run_cells_parallel(cells, workers=1)


def smoke(trace_path: str) -> List[str]:
    """Process chaos: crash + hang + corrupt, two workers, retried.

    Every fault is deterministic and fires once, so with retries the
    batch must complete with results identical to an undisturbed
    serial run, and the manifest must count what the machinery did.
    """
    cells = _cells()
    reference = _reference_rows(cells)
    print(f"chaos run: faults [{SMOKE_FAULTS}], workers=2, "
          f"timeout={CELL_TIMEOUT:g}s, 2 retries")
    with _traced("smoke", trace_path, SMOKE_FAULTS, "resilience") as stats:
        chaotic = run_cells_parallel(cells, workers=2, timeout=CELL_TIMEOUT,
                                     retry=CELL_RETRY)
    problems = []
    if chaotic != reference:
        problems.append("chaos results differ from the undisturbed run")
    if stats.get("worker_deaths", 0) < 1:
        problems.append("crash fault produced no worker death")
    if stats.get("timeouts", 0) < 1:
        problems.append("hang fault was not reaped by the timeout")
    if stats.get("corrupt", 0) < 1:
        problems.append("corrupt fault was not quarantined")
    if stats.get("retries", 0) < 3:
        problems.append(f"expected >= 3 retries, saw {stats.get('retries')}")
    if stats.get("failures", 0) != 0:
        problems.append(f"{stats['failures']} cells failed outright")
    return problems


def disk(trace_path: str) -> List[str]:
    """Disk and memory chaos against the durability layer, then a resume.

    The batch journals while the plan starves one append of disk, tears
    another mid-line, rots a third at rest and OOMs one cell: results
    must stay intact and the write error be counted.  A raw volume
    written under the same bit rot must be quarantined on read, never
    decoded.  A resumed run over the damaged journal must restore
    exactly the intact records, quarantine the corrupt one and converge
    to the undisturbed rows.
    """
    cells = _cells()
    reference = _reference_rows(cells)
    problems = []
    print(f"disk-chaos run: faults [{DISK_FAULTS}], serial, journaled, "
          f"governed")
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "chaos.journal.jsonl")
        volume_path = os.path.join(tmp, "volume.raw")
        with _traced("disk", trace_path, DISK_FAULTS, "resilience") as stats:
            # the disk goes bad under the journal: the batch keeps its
            # in-memory results (ENOSPC degrades, never aborts) while the
            # journal gains one missing, one torn and one rotted record
            damaged = run_cells_parallel(cells, workers=1,
                                         checkpoint=journal, govern=True,
                                         retry=CELL_RETRY)
            volume = np.arange(24, dtype=np.float32).reshape(4, 3, 2)
            with faults_installed("bitflip@0"):
                write_raw(volume_path, volume)
            with faults_installed(""):
                try:
                    read_raw(volume_path, volume.shape)
                    problems.append("bit-rotted volume was read back "
                                    "without an integrity error")
                except ArtifactIntegrityError as exc:
                    print(f"volume quarantined as designed: {exc}")
                # only the intact records restore; the corrupt one is
                # quarantined (never decoded) and its cell re-runs
                print("resume over the damaged journal: workers=2")
                resumed = run_cells_parallel(
                    cells, workers=2, checkpoint=journal, resume=True,
                    timeout=CELL_TIMEOUT, retry=CELL_RETRY)
        if not os.path.exists(volume_path + ".corrupt"):
            problems.append("corrupt volume was not quarantined aside")
        quarantine = journal + ".quarantine.jsonl"
        quarantined_records = 0
        if os.path.exists(quarantine):
            with open(quarantine) as fh:
                quarantined_records = sum(1 for line in fh if line.strip())

    if damaged != reference:
        problems.append("results under disk faults differ from the "
                        "undisturbed run")
    if resumed != reference:
        problems.append("resumed results differ from the undisturbed run")
    # journal writes 0..5 in serial order: 1 starved (ENOSPC), 3 torn
    # (merging with 4's line), 5 bit-rotted — leaving exactly records 0
    # and 2 restorable
    if stats.get("restored") != 2:
        problems.append(f"expected exactly 2 restored cells, "
                        f"saw {stats.get('restored')}")
    if stats.get("journal_write_errors", 0) < 1:
        problems.append("ENOSPC fault did not surface as a journal write "
                        "error")
    if stats.get("journal_corrupt", 0) < 1:
        problems.append("bit-rotted journal record was not detected on "
                        "load")
    if quarantined_records < 1:
        problems.append("no quarantine entry was written for the corrupt "
                        "journal record")
    if stats.get("retries", 0) < 1:
        problems.append("injected OOM was not retried")
    if stats.get("artifacts_quarantined", 0) < 1:
        problems.append("artifact quarantine did not reach the trace "
                        "counters")
    if stats.get("failures", 0) != 0:
        problems.append(f"{stats['failures']} cells failed outright")
    if "gov_admitted_workers" not in stats:
        problems.append("governed run recorded no admission decision")
    return problems


# -- serving: serve, cluster and fuzz -----------------------------------------

def serve(trace_path: str) -> List[str]:
    """A replicated store serves bit-identical bytes under fire.

    One session is served undisturbed, then again with shard 1 down for
    the whole run, one replica rotted whose sibling is on the dead shard
    (an origin rebuild), one rotted with a healthy sibling (failover and
    read-repair) and one read stalled.  Every query must be answered
    with the reference bytes, the dead shard must trip its breaker, the
    cache must stay memsim-exact, and every replica must verify against
    its sidecar afterwards.
    """
    dense = combustion_field(SHAPE, seed=SEED)
    queries = generate_queries(SHAPE, SERVE_QUERIES, seed=SEED)
    arrivals = arrival_times(SERVE_QUERIES, profile="burst", seed=SEED)
    session = {"concurrency": SERVE_CONCURRENCY, "arrivals": arrivals,
               "time_scale": 0.0}
    with tempfile.TemporaryDirectory(prefix="repro-chaos-serve-") as tmp:
        store = ChunkStore.create(os.path.join(tmp, "store"), dense,
                                  shards=SERVE_SHARDS, **STORE)
        print(_describe(store))
        print(f"reference run: {SERVE_QUERIES} queries, no faults")
        reference = VolumeServer(store, cache=CACHE).serve_session(
            queries, **session)
        print(f"chaos run: faults [{SERVE_FAULTS}], deadline "
              f"{SERVE_RELIABILITY.deadline_s:g}s, "
              f"{SERVE_RELIABILITY.retry.max_retries} retries")
        server = VolumeServer(store, cache=CACHE,
                              reliability=SERVE_RELIABILITY)
        with _traced("serve", trace_path, SERVE_FAULTS, "serve") as stats:
            chaotic = server.serve_session(queries, **session)
        # the wake of the chaos must be clean: every replica of every
        # segment back on disk and verifying against its sidecar
        unverified = _unverified(store, store.placement)

    problems = check_served(chaotic, payload_digests(reference),
                            server.cache)
    if stats.get("shed", 0) != 0:
        problems.append(f"{stats['shed']} queries shed with no admission "
                        f"bound configured")
    if stats.get("reliability_failovers", 0) < 3:
        problems.append("dead shard produced fewer than 3 replica "
                        "failovers")
    if stats.get("reliability_read_repairs", 0) < 1:
        problems.append("corrupt replica with a healthy sibling was not "
                        "read-repaired")
    if stats.get("segments_rebuilt", 0) < 1:
        problems.append("segment with no healthy replica was not rebuilt "
                        "from the origin")
    if stats.get("reliability_breaker_open", 0) < 1:
        problems.append("dead shard never tripped its circuit breaker")
    if stats.get("reliability_breaker_denied", 0) < 1:
        problems.append("open breaker never short-circuited a read")
    if unverified:
        problems.append(f"{unverified} replica files fail sidecar "
                        f"verification after repair/rebuild")
    return problems


def cluster_stores(workdir: str, dense: np.ndarray, queries, *, cache,
                   crosscheck: bool = True, **layout):
    """The store a cluster session runs on, and the reference it must match.

    The store is built under ``workdir`` with ``layout`` (keywords of
    :meth:`ChunkStore.create`).  With ``crosscheck`` a second copy
    serves ``queries`` one by one with no fault plan and no tracer, and
    the :func:`payload_digests` of that undisturbed run come back as the
    reference; without it the reference is ``None``.
    """
    store = ChunkStore.create(os.path.join(workdir, "store"), dense,
                              **layout)
    if not crosscheck:
        return store, None
    calm = VolumeServer(ChunkStore.create(os.path.join(workdir, "calm"),
                                          dense, **layout), cache=cache)
    with _undisturbed():
        return store, payload_digests([calm.serve(q) for q in queries])


def serve_cluster(store: ChunkStore, queries, faults: str, *, cache,
                  **knobs):
    """Serve ``queries`` through a fresh :class:`ShardCluster` over
    ``store`` (built with ``knobs``) under the fault plan ``faults``.

    Returns ``(cluster, results)``; the ambient plan is back afterwards.
    """
    with faults_installed(faults):
        cluster = ShardCluster(store, cache=cache, **knobs)
        return cluster, cluster.serve_session(queries)


def _check_membership(cluster: ShardCluster, stats) -> List[str]:
    """The elastic promises of one chaos-cluster session."""
    problems = []
    if cluster.deaths != 2:
        problems.append(f"expected 2 shard deaths, saw {cluster.deaths}")
    if cluster.joins != 1:
        problems.append(f"expected 1 shard join, saw {cluster.joins}")
    if cluster.cutovers < 3:
        problems.append(f"expected >= 3 map cutovers, "
                        f"saw {cluster.cutovers}")
    if cluster.target is not None:
        problems.append("cluster never finished its last migration")
    if stats.get("segments_rebuilt", 0) != 0:
        problems.append(
            f"{stats['segments_rebuilt']} origin rebuilds: rolling "
            f"failures must always leave a healthy sibling")
    # under-replication must rise on each detected death and come
    # monotonically back to zero — the re-replication promise
    hist = cluster.under_replicated_history
    if max(c for _, c in hist) < 1:
        problems.append("shard deaths never produced under-replication "
                        "(detector asleep?)")
    last_rise = max((i for i in range(1, len(hist))
                     if hist[i][1] > hist[i - 1][1]), default=0)
    tail = [c for _, c in hist[last_rise:]]
    if any(a < b for a, b in zip(tail, tail[1:])):
        problems.append("under-replicated count not monotone after its "
                        f"last rise: {tail}")
    if hist[-1][1] != 0 or cluster.under_replicated() != 0:
        problems.append(f"under-replicated count ended at "
                        f"{hist[-1][1]}, not 0")
    # the SFC claim, per membership change: contiguous curve ranges
    # move no more copies than recutting a Cartesian box grid
    for c in cluster.comparisons:
        if c.sfc_moved > c.cartesian_moved:
            problems.append(
                f"SFC map moved {c.sfc_moved} segment copies for "
                f"{c.old_live} -> {c.new_live}, more than the "
                f"block-Cartesian strawman's {c.cartesian_moved:.1f}")
    if stats.get("scrub_checked", 0) < 1:
        problems.append("scrub counters never reached the manifest")
    return problems


def _scrub_injected_damage(cluster: ShardCluster) -> List[str]:
    """Rot one copy at rest and make another silently divergent; two
    scrub laps must catch and repair both (the read path would never
    see the second until routed there — that is the scrubber's job)."""
    store = cluster.store
    alive = {s for s, st in cluster.detector.state.items()
             if st == "alive"}
    victims = []
    for seg in range(store.n_segments):
        placed = cluster.map.replicas_of(seg)
        if len(placed) >= 2 and set(placed) <= alive:
            victims.append((seg, placed))
            if len(victims) == 2:
                break
    if len(victims) < 2:
        return ["no fully-alive replicated segments to scrub"]
    (seg_rot, placed_rot), (seg_div, placed_div) = victims
    # 1: flip one byte at rest (sidecar mismatch — verification catches)
    rot_path = store.path_on_shard(seg_rot, placed_rot[1])
    with open(rot_path, "r+b") as fh:  # repro: noqa[RPC401] (injecting rot)
        byte = fh.read(1)
        fh.seek(0)
        fh.write(bytes([byte[0] ^ 0xFF]))
    # 2: a self-consistent but divergent non-primary copy (valid sidecar
    # over the wrong bytes — only digest comparison catches)
    good = store.read_replica_bytes(seg_div, [placed_div[0]])
    store.write_replica_on(seg_div, placed_div[1], good[::-1])

    scrubber = cluster.scrubber
    before_rep, before_div = scrubber.repaired, scrubber.divergent
    scrubber.run(2 * len([p for p in cluster.map.placements()
                          if p[1] in alive]))
    problems = []
    if scrubber.repaired - before_rep < 2:
        problems.append(f"scrubber repaired {scrubber.repaired - before_rep}"
                        f" of 2 injected bad replicas")
    if scrubber.divergent - before_div < 1:
        problems.append("scrubber missed the silently divergent replica")
    for seg, placed in victims:
        ref = store.read_replica_bytes(seg, [placed[0]])
        for shard in placed[1:]:
            if store.read_replica_bytes(seg, [shard]) != ref:
                problems.append(f"segment {seg} replicas still diverge "
                                f"after scrubbing")
    return problems


def cluster(trace_path: str) -> List[str]:
    """Elastic sharding serves bit-identical bytes through rolling shard
    failures and a rejoin.

    The cluster must detect each membership change with its event-count
    detector, re-replicate the dead shards' curve ranges from healthy
    siblings while the old map keeps serving, and cut over — every query
    answered with the reference bytes, the cache memsim-exact,
    under-replication monotone back to zero, no origin rebuild, and the
    SFC map moving no more copies than the block-Cartesian strawman.  A
    scrub afterwards must repair injected rot and divergence, and every
    mapped copy must verify against its sidecar.
    """
    dense = combustion_field(SHAPE, seed=SEED)
    queries = generate_queries(SHAPE, CLUSTER_QUERIES, seed=SEED)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-cluster-") as tmp:
        store, want = cluster_stores(tmp, dense, queries, cache=CACHE,
                                     shards=CLUSTER_SHARDS, **STORE)
        print(_describe(store))
        print(f"chaos run: {CLUSTER_QUERIES} queries, reference served "
              f"with stable membership; membership faults "
              f"[{CLUSTER_FAULTS}]")
        # the fault plan stays installed through the scrub, which runs
        # inside the trace so its scrub_* tallies reach the manifest
        with _traced("cluster", trace_path, CLUSTER_FAULTS, "serve") as stats:
            cl, chaotic = serve_cluster(store, queries, CLUSTER_FAULTS,
                                        cache=CACHE, **CLUSTER_KNOBS)
            problems = _scrub_injected_damage(cl)
        print(f"map v{cl.map.version}, {cl.segments_moved} copies moved")
        problems += check_served(chaotic, want, cl.server.cache)
        problems += _check_membership(cl, stats)
        # the wake of the chaos must be clean: every copy the final map
        # calls for on disk and verifying against its sidecar
        unverified = _unverified(store, cl.map)
    if unverified:
        problems.append(f"{unverified} mapped copies fail sidecar "
                        f"verification after the rebalances")
    return problems


def _geometry(results):
    return [(r.chunks_needed, r.segments_touched, r.bytes_touched,
             r.bytes_returned) for r in results]


def _serve_perturbed(store: ChunkStore, queries, arrivals,
                     fuzzer: Optional[ScheduleFuzzer] = None):
    """One fresh-server session; returns ``(results, cache)``."""
    server = VolumeServer(store, cache=CACHE)
    results = asyncio.run(server.session(
        queries, concurrency=FUZZ_CONCURRENCY, arrivals=arrivals,
        time_scale=0.0, perturb=fuzzer))
    return results, server.cache


def fuzz(trace_path: str) -> List[str]:
    """Served bytes must not depend on the schedule.

    One seeded workload is served once unperturbed, then under
    :data:`FUZZ_SEEDS` scheduling seeds, each driving a
    :class:`~repro.serve.fuzz.ScheduleFuzzer` that injects extra
    event-loop yields at the session's scheduling seams.  Every run must
    answer every query with the reference bytes, report the same
    per-query geometry, log as many cache accesses (their order, and so
    the hit count, may move with the schedule) and keep its cache
    memsim-exact for the stream it saw.  A replay of the first seed must
    reproduce that run yield for yield.  Writes no trace; ``trace_path``
    is unused.
    """
    dense = combustion_field(FUZZ_SHAPE, seed=FUZZ_SEED)
    queries = generate_queries(FUZZ_SHAPE, FUZZ_QUERIES, seed=FUZZ_SEED)
    arrivals = arrival_times(FUZZ_QUERIES, profile="burst", seed=FUZZ_SEED)
    problems = []
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-ilv-") as tmp:
        store = ChunkStore.create(
            os.path.join(tmp, "store"), dense, order=STORE["order"],
            chunk=STORE["chunk"],
            chunks_per_segment=STORE["chunks_per_segment"])
        print(f"{_describe(store)}; workload: {FUZZ_QUERIES} queries, "
              f"concurrency {FUZZ_CONCURRENCY}")
        reference, ref_cache = _serve_perturbed(store, queries, arrivals)
        want = payload_digests(reference)
        want_geometry = _geometry(reference)
        want_accesses = len(ref_cache.access_log)
        print(f"reference: {want_accesses} cache accesses, "
              f"{ref_cache.hits} hits")

        first_run = None
        for seed in range(1, FUZZ_SEEDS + 1):
            fuzzer = ScheduleFuzzer(seed)
            results, cache = _serve_perturbed(store, queries, arrivals,
                                              fuzzer)
            found = check_served(results, want, cache)
            if all(r.ok for r in results):
                got = _geometry(results)
                if got != want_geometry:
                    diff = [i for i, (a, b)
                            in enumerate(zip(got, want_geometry)) if a != b]
                    found.append(f"geometry counters differ at queries "
                                 f"{diff}")
                if len(cache.access_log) != want_accesses:
                    found.append(
                        f"{len(cache.access_log)} cache accesses != "
                        f"reference {want_accesses} (an access was lost "
                        f"or double-counted)")
                if seed == 1:
                    first_run = (fuzzer.yields, list(cache.access_log),
                                 cache.hits)
            problems += [f"seed {seed}: {p}" for p in found]
            hits = ", ".join(f"{k}x{v}"
                             for k, v in sorted(fuzzer.hits.items()))
            print(f"seed {seed}: {fuzzer.yields} extra yields ({hits}), "
                  f"{cache.hits} hits, "
                  + ("bytes identical" if not found
                     else f"{len(found)} problems"))

        # same-seed replay: the schedule itself must be deterministic
        if first_run is not None:
            fuzzer = ScheduleFuzzer(1)
            _, cache = _serve_perturbed(store, queries, arrivals, fuzzer)
            replay = (fuzzer.yields, list(cache.access_log), cache.hits)
            if replay != first_run:
                problems.append(
                    f"seed 1 replay diverged from its first run (yields "
                    f"{first_run[0]}→{replay[0]}, hits {first_run[2]}→"
                    f"{replay[2]}): the fuzzer is not deterministic")
    print(f"{FUZZ_SEEDS} scheduling seeds (+1 replay) in "
          f"{time.monotonic() - start:.1f}s")
    return problems


#: scenario name -> scenario; ``repro chaos NAME [TRACE]`` runs one
SCENARIOS = {
    "smoke": smoke,
    "disk": disk,
    "serve": serve,
    "cluster": cluster,
    "fuzz": fuzz,
}


def run_scenario(name: str, trace_path: str) -> List[str]:
    """Run scenario ``name`` with no ambient tracer or fault plan; both
    are back when it returns or raises.  Returns its problem list."""
    with _undisturbed():
        return SCENARIOS[name](trace_path)
