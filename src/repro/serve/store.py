"""Layout-aware chunked volume store: bricks on disk, in curve order.

The paper proves space-filling-curve layouts win *inside* one address
space; this module carries the same argument to storage.  A volume is
bricked into fixed-shape chunks, and the chunks are written to disk in
the file order a configurable curve dictates — the chunk-grid analogue
of handing ``make_layout`` a voxel grid.  The order is a **spec
string** from the one registry grammar (``"morton"``, ``"hilbert"``,
``"tiled:brick=2"``, ``"array"`` for the row-major baseline), so every
layout the project knows — including user-registered ones — is a valid
chunk placement.

On disk an unreplicated store is a flat directory::

    store/
      meta.json                 (+ .integrity.json sidecar)
      seg-00000.bin             (+ sidecar)  — `chunks_per_segment` chunks
      seg-00001.bin             ...             in curve order

With ``shards > 1`` the segments move into simulated shard
directories, and with ``replicas > 1`` every segment is written to
``replicas`` *distinct* shards::

    store/
      meta.json
      shard-00/seg-00000.bin    — replica 0 (primary)
      shard-01/seg-00000.bin    — replica 1
      ...

Placement is **keyed by curve-segment ranges**: the store's static
placement is the all-live :class:`~repro.serve.placement.ShardMap`,
under which segment ``s``'s primary shard is ``s * shards //
n_segments`` — a contiguous span of the curve order per shard — and
replica ``r`` lands ``r`` shards further around the ring.
Spatially-close chunks therefore share not just segments but shards,
so a regional traffic spike maps to contiguous shards.

Chunks are grouped into fixed-size **segments** — the store's unit of
I/O, caching and now replication, the way cache lines group words.  A
query needs some set of chunks; which *segments* those chunks land in
depends entirely on the curve, and that is where the locality win
becomes bytes: spatially-close chunks share segments under
Morton/Hilbert order and scatter across them under row-major order.

Every write goes through :mod:`repro.resilience.artifacts` (atomic
replace + SHA-256 sidecar).  Every read hashes the bytes it returns:
the first read of a copy in a process checks them against the copy's
sidecar and keeps that record (length + digest) in memory, later reads
check against the kept record without opening the sidecar, and any
write to the copy drops it.  A replica that rots on disk (or goes
missing) is quarantined on read, served from the next replica (then
**read-repaired** — the good bytes are durably rewritten over the bad
copy), and only when every replica fails is the segment rebuilt from
the ``origin`` volume.  A wrong byte is never returned.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.registry import make_layout
from ..instrument import trace as _trace
from ..resilience import artifacts as _artifacts
from ..resilience import faults as _faults
from .placement import ShardMap

__all__ = ["ChunkStore", "chunk_placement", "STORE_SCHEMA_VERSION"]

#: bumped whenever the on-disk store format changes incompatibly
STORE_SCHEMA_VERSION = 1

#: artifact kinds for the sidecar integrity records
_META_KIND = "serve-meta"
_SEGMENT_KIND = "serve-segment"

_META_NAME = "meta.json"


def chunk_placement(order: str, grid_shape: Sequence[int]) -> np.ndarray:
    """File slot of every chunk under the ``order`` curve.

    Builds the layout named by the spec string over the *chunk grid*,
    ranks the chunks by their curve offset, and returns ``slot_of``:
    ``slot_of[chunk_id]`` is the chunk's position in file order, where
    ``chunk_id`` runs x-fastest over the chunk grid.  Ranking (rather
    than using raw curve offsets) compacts away the padding holes
    recursive layouts leave in non-power-of-two grids, so a store never
    stores a hole.
    """
    gx, gy, gz = (int(g) for g in grid_shape)
    layout = make_layout(order, (gx, gy, gz))
    ids = np.arange(gx * gy * gz, dtype=np.int64)
    ci = ids % gx
    cj = (ids // gx) % gy
    ck = ids // (gx * gy)
    offsets = layout.index_array(ci, cj, ck)
    perm = np.argsort(offsets, kind="stable")  # slot s holds chunk perm[s]
    # perm maps slot -> chunk; invert to chunk -> slot
    inv = np.empty(ids.size, dtype=np.int64)
    inv[perm] = np.arange(ids.size, dtype=np.int64)
    return inv


class ChunkStore:
    """A bricked volume whose chunks sit on disk in curve order.

    Construct with :meth:`create` (pack a dense array) or :meth:`open`
    (attach to an existing store directory).  ``origin`` — the dense
    source array, or a zero-argument callable returning it — enables
    segment *repair*: a corrupt segment is quarantined by the artifact
    layer and transparently rebuilt from source.

    The reading surface is chunk-shaped on purpose: callers fetch whole
    segments (:meth:`read_segment`) and assemble subvolumes from chunk
    blocks, which is exactly the access pattern whose cost the serving
    metrics price.
    """

    def __init__(self, path: str, meta: dict,
                 origin: Union[np.ndarray, Callable[[], np.ndarray], None]
                 = None):
        self.path = os.fspath(path)
        self.meta = meta
        self.shape: Tuple[int, int, int] = tuple(meta["shape"])
        self.chunk_shape: Tuple[int, int, int] = tuple(meta["chunk_shape"])
        self.order: str = meta["order"]
        self.chunks_per_segment: int = int(meta["chunks_per_segment"])
        self.dtype = np.dtype(meta["dtype"])
        cx, cy, cz = self.chunk_shape
        #: elements per (padded) chunk
        self.chunk_elems: int = cx * cy * cz
        #: bytes per (padded) chunk
        self.chunk_bytes: int = self.chunk_elems * self.dtype.itemsize
        self._origin = origin
        self.grid_shape: Tuple[int, int, int] = tuple(
            -(-s // c) for s, c in zip(self.shape, self.chunk_shape))
        self.n_chunks = int(np.prod(self.grid_shape))
        self.slot_of = chunk_placement(self.order, self.grid_shape)
        # chunk_at[slot] -> chunk id (x-fastest over the chunk grid)
        self.chunk_at = np.empty(self.n_chunks, dtype=np.int64)
        self.chunk_at[self.slot_of] = np.arange(self.n_chunks, dtype=np.int64)
        self.n_segments = -(-self.n_chunks // self.chunks_per_segment)
        self.replicas = int(meta.get("replicas", 1))
        self.shards = int(meta.get("shards", 1))
        if self.replicas < 1 or self.shards < 1:
            raise ValueError(f"replicas/shards must be >= 1, got "
                             f"{self.replicas}/{self.shards}")
        if self.replicas > self.shards:
            raise ValueError(
                f"replicas ({self.replicas}) must not exceed shards "
                f"({self.shards}): copies must land on distinct shards")
        #: the static placement; a cluster versions it (ShardCluster.map)
        self.placement = ShardMap.initial(self)
        # a copy's path is its shard's directory prefix + segment name
        dirs = [f"shard-{s:02d}" for s in range(self.shards)] \
            if self.shards > 1 else [""]
        self._shard_dirs = tuple(os.path.join(self.path, d, "")
                                 for d in dirs)
        # path -> the {bytes, sha256} record the copy's sidecar held when
        # the copy last verified in this process; dropped on every write
        # to (or quarantine of) the path
        self._records: Dict[str, Dict[str, object]] = {}
        self.segments_rebuilt = 0
        self.read_repairs = 0
        self.failovers = 0
        # shards currently in simulated outage (shared with a cluster's
        # membership layer): reads routed to them raise InjectedFault
        # before any byte moves, exactly like a shard-down fault
        self.down_shards: set = set()

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, path: str, dense: np.ndarray, *,
               order: str = "morton",
               chunk: Union[int, Sequence[int]] = 16,
               chunks_per_segment: int = 4,
               replicas: int = 1,
               shards: Optional[int] = None) -> "ChunkStore":
        """Brick ``dense`` and write a store directory at ``path``.

        ``order`` is a layout spec string applied to the chunk grid;
        ``chunk`` is the brick edge (int for cubic, or a 3-tuple);
        ``chunks_per_segment`` sets the I/O granularity.  Edge chunks
        are zero-padded to the full chunk shape so every chunk has one
        byte length and segment offsets stay arithmetic.

        ``replicas`` copies of every segment are placed on distinct
        simulated ``shards`` (default: one shard per replica); with
        one replica on one shard the on-disk layout stays the flat
        legacy form, so old stores open unchanged.
        """
        dense = np.asarray(dense)
        if dense.ndim != 3:
            raise ValueError(f"expected a 3-D volume, got shape {dense.shape}")
        if isinstance(chunk, (int, np.integer)):
            chunk_shape = (int(chunk),) * 3
        else:
            chunk_shape = tuple(int(c) for c in chunk)
            if len(chunk_shape) != 3:
                raise ValueError(f"chunk must be an int or a 3-tuple, "
                                 f"got {chunk!r}")
        if any(c <= 0 for c in chunk_shape):
            raise ValueError(f"chunk extents must be positive, "
                             f"got {chunk_shape}")
        if chunks_per_segment <= 0:
            raise ValueError(f"chunks_per_segment must be positive, "
                             f"got {chunks_per_segment}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if shards is None:
            shards = replicas
        # validate the order spec (and fail fast) before touching disk
        grid_shape = tuple(-(-s // c)
                           for s, c in zip(dense.shape, chunk_shape))
        chunk_placement(order, grid_shape)
        meta = {
            "schema_version": STORE_SCHEMA_VERSION,
            "shape": list(dense.shape),
            "chunk_shape": list(chunk_shape),
            "order": order,
            "chunks_per_segment": int(chunks_per_segment),
            "dtype": np.dtype(dense.dtype).newbyteorder("<").str,
            "replicas": int(replicas),
            "shards": int(shards),
        }
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        store = cls(path, meta, origin=dense)
        for seg in range(store.n_segments):
            payload = store._segment_payload(dense, seg)
            for shard in store.placement.replicas_of(seg):
                store._write_segment_copy(store.path_on_shard(seg, shard),
                                          payload)
        _artifacts.write_text_artifact(
            os.path.join(path, _META_NAME),
            json.dumps(meta, sort_keys=True) + "\n",
            kind=_META_KIND, schema_version=STORE_SCHEMA_VERSION)
        return store

    @classmethod
    def open(cls, path: str,
             origin: Union[np.ndarray, Callable[[], np.ndarray], None]
             = None) -> "ChunkStore":
        """Attach to an existing store directory (meta is verified)."""
        path = os.fspath(path)
        data = _artifacts.read_artifact(os.path.join(path, _META_NAME))
        meta = json.loads(data.decode("utf-8"))
        if meta.get("schema_version") != STORE_SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported store schema "
                f"{meta.get('schema_version')!r}")
        return cls(path, meta, origin=origin)

    # -- geometry -------------------------------------------------------------

    @property
    def segment_bytes(self) -> int:
        """Bytes per full segment (the tail segment may be shorter)."""
        return self.chunk_bytes * self.chunks_per_segment

    def chunk_coords(self, chunk_ids: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Chunk-grid coordinates of x-fastest ``chunk_ids``."""
        gx, gy, _ = self.grid_shape
        ids = np.asarray(chunk_ids, dtype=np.int64)
        return ids % gx, (ids // gx) % gy, ids // (gx * gy)

    def chunk_ids(self, ci, cj, ck) -> np.ndarray:
        """X-fastest linear chunk ids of chunk-grid coordinates."""
        gx, gy, _ = self.grid_shape
        ci = np.asarray(ci, dtype=np.int64)
        cj = np.asarray(cj, dtype=np.int64)
        ck = np.asarray(ck, dtype=np.int64)
        return ci + gx * (cj + gy * ck)

    def segment_chunk_count(self, seg: int) -> int:
        """Number of chunks stored in segment ``seg``."""
        start = seg * self.chunks_per_segment
        if not 0 <= start < self.n_chunks:
            raise IndexError(f"segment {seg} out of range "
                             f"0..{self.n_segments - 1}")
        return min(self.chunks_per_segment, self.n_chunks - start)

    def chunks_for_bbox(self, lo: Sequence[int],
                        hi: Sequence[int]) -> np.ndarray:
        """Chunk ids intersecting the half-open voxel box ``[lo, hi)``.

        Placement-independent: the same box needs the same chunks under
        every order spec — only *where* those chunks live changes.
        """
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError(f"empty bbox lo={lo} hi={hi}")
        if any(a < 0 or b > s for a, b, s in zip(lo, hi, self.shape)):
            raise ValueError(f"bbox lo={lo} hi={hi} outside volume "
                             f"{self.shape}")
        gx, gy, _ = self.grid_shape
        c0 = [a // c for a, c in zip(lo, self.chunk_shape)]
        c1 = [-(-b // c) for b, c in zip(hi, self.chunk_shape)]
        ci = np.arange(c0[0], c1[0], dtype=np.int64)
        cj = np.arange(c0[1], c1[1], dtype=np.int64) * gx
        ck = np.arange(c0[2], c1[2], dtype=np.int64) * (gx * gy)
        # (z, y, x) row-major, so x varies fastest
        return (ck[:, None, None] + cj[:, None] + ci).ravel()

    def segment_runs(self, slots: np.ndarray) -> Tuple[List[int], List[int]]:
        """Split sorted, non-empty file ``slots`` into one run per segment.

        Returns ``(segments, bounds)``: run ``r`` is
        ``slots[bounds[r]:bounds[r + 1]]``, all in ``segments[r]``.
        """
        segs = slots // self.chunks_per_segment
        cuts = np.flatnonzero(segs[1:] != segs[:-1]) + 1
        bounds = np.concatenate(([0], cuts, [segs.size]))
        return segs[bounds[:-1]].tolist(), bounds.tolist()

    def segments_bytes(self, segs: Sequence[int]) -> int:
        """Bytes stored in segments ``segs`` (only the tail may be short)."""
        starts = np.asarray(segs, dtype=np.int64) * self.chunks_per_segment
        counts = np.minimum(self.chunks_per_segment, self.n_chunks - starts)
        return int(counts.sum()) * self.chunk_bytes

    # -- segment I/O ----------------------------------------------------------

    def shard_of_segment(self, seg: int, replica: int = 0) -> int:
        """Simulated shard holding replica ``replica`` of segment ``seg``.

        Read off the static :attr:`placement`: primaries partition the
        curve order into contiguous curve-segment ranges, replica ``r``
        sits ``r`` shards further around the ring, so with ``replicas
        <= shards`` every copy lands on a distinct shard and one dead
        shard never takes out a whole segment.
        """
        return self.placement.replicas_of(seg)[replica]

    def path_on_shard(self, seg: int, shard: int) -> str:
        """Where a copy of segment ``seg`` lives on shard ``shard``.

        The copy need not exist: a cluster's rebalancer uses this to
        place new copies as the shard map moves.  Unsharded stores keep
        the flat legacy path.
        """
        return f"{self._shard_dirs[shard]}seg-{seg:05d}.bin"

    def _replica_path(self, seg: int, replica: int) -> str:
        """On-disk path of one replica (flat layout when unsharded)."""
        return self.path_on_shard(seg, self.shard_of_segment(seg, replica))

    def _segment_payload(self, dense: np.ndarray, seg: int) -> bytes:
        """Segment ``seg``'s bytes, packed from the dense source."""
        cx, cy, cz = self.chunk_shape
        parts: List[bytes] = []
        start = seg * self.chunks_per_segment
        for slot in range(start, start + self.segment_chunk_count(seg)):
            cid = int(self.chunk_at[slot])
            ci, cj, ck = (int(v) for v in self.chunk_coords(cid))
            block = np.zeros((cx, cy, cz), dtype=self.dtype)
            a = (ci * cx, cj * cy, ck * cz)
            b = tuple(min(av + c, s)
                      for av, c, s in zip(a, (cx, cy, cz), self.shape))
            block[: b[0] - a[0], : b[1] - a[1], : b[2] - a[2]] = \
                dense[a[0]:b[0], a[1]:b[1], a[2]:b[2]]
            parts.append(block.tobytes())
        return b"".join(parts)

    def _origin_dense(self) -> np.ndarray:
        origin = self._origin() if callable(self._origin) else self._origin
        dense = np.asarray(origin)
        if dense.shape != self.shape:
            raise ValueError(
                f"origin shape {dense.shape} != store shape {self.shape}")
        return dense

    def rebuild_segment(self, seg: int, shards: Sequence[int],
                        quarantined: Optional[str] = None) -> None:
        """Re-pack segment ``seg`` from the origin and durably rewrite
        its copy on every shard in ``shards``.

        ``quarantined`` — where the artifact layer moved the corrupt
        evidence, recorded on the trace span so a post-mortem can go
        from "segment N was rebuilt" straight to the rotted bytes.
        """
        if self._origin is None:
            raise RuntimeError(
                f"segment {seg} of {self.path} needs rebuilding but the "
                f"store was opened without an origin")
        with _trace.span("serve.rebuild_segment", segment=seg,
                         quarantined=quarantined or ""):
            payload = self._segment_payload(self._origin_dense(), seg)
            for shard in shards:
                self._write_segment_copy(self.path_on_shard(seg, shard),
                                         payload)
                _trace.add("resilience.artifacts_rebuilt", 1)
            self.segments_rebuilt += 1
            _trace.add("serve.segments_rebuilt", 1)

    def _write_segment_copy(self, path: str, payload: bytes) -> None:
        """One durable segment write (atomic replace + sidecar).

        The copy's kept record is dropped first, so the next read
        checks the new bytes against the new sidecar.
        """
        self._records.pop(path, None)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _artifacts.write_artifact(
            path, payload,
            kind=_SEGMENT_KIND, schema_version=STORE_SCHEMA_VERSION)

    def write_replica_on(self, seg: int, shard: int, payload: bytes) -> None:
        """Durably place a copy of segment ``seg`` on shard ``shard``.

        The rebalancer's move primitive: the payload must already be
        verified (it came off :meth:`read_replica_bytes`), and the
        write carries a fresh sidecar so the new copy verifies too.
        """
        self._write_segment_copy(self.path_on_shard(seg, shard), payload)

    def _repair_copy(self, path: str, payload: bytes) -> None:
        """Read-repair one corrupt copy in place from known-good bytes."""
        self._write_segment_copy(path, payload)
        self.read_repairs += 1
        _trace.add("serve.reliability_read_repairs", 1)

    def verify_copy(self, seg: int, shard: int) -> dict:
        """The scrubber's at-rest check of one copy; returns its sidecar.

        Unlike a read it always opens the sidecar, so a sidecar that
        rotted after the copy's record was kept is caught here.  A copy
        that fails is quarantined by the artifact layer and its kept
        record dropped, then the failure is raised.
        """
        path = self.path_on_shard(seg, shard)
        try:
            return _artifacts.verify_artifact(path, require_sidecar=True)
        except (_artifacts.ArtifactIntegrityError, OSError):
            self._records.pop(path, None)
            raise

    def read_replica_bytes(self, seg: int,
                           shards: Sequence[int]) -> bytes:
        """First verified copy of segment ``seg`` among ``shards``.

        The rebalancer's and scrubber's source read: tries each shard
        in order, skipping outages and quarantining corruption exactly
        like the query path, but performs no repair itself — the caller
        decides where the bytes go.  Raises the last failure when no
        shard can serve the segment.
        """
        expected = self.segment_chunk_count(seg) * self.chunk_bytes
        plan = _faults.active_plan()
        last: Optional[Exception] = None
        for shard in shards:
            try:
                return self._read_replica(seg, shard, expected, plan)
            except (_artifacts.ArtifactIntegrityError,
                    _faults.InjectedFault, OSError) as exc:
                last = exc
        raise last if last is not None else _faults.InjectedFault(
            f"segment {seg}: no source shards given")

    def _read_copy(self, path: str) -> bytes:
        """One copy's bytes, hashed and checked before they are returned.

        The check is against the copy's kept record, or — on the first
        read of the copy in this process, or the first since a write —
        against its sidecar, whose record is then kept.  A copy that
        fails is quarantined by the artifact layer and its record
        dropped.
        """
        record = self._records.get(path)
        cold = record is None
        if cold:
            record = _artifacts.read_sidecar(path)
        try:
            data = _artifacts.read_artifact(path, record=record)
        except (_artifacts.ArtifactIntegrityError, OSError):
            self._records.pop(path, None)
            raise
        if cold and record is not None:
            self._records[path] = {"bytes": record["bytes"],
                                   "sha256": record["sha256"]}
        return data

    def _read_replica(self, seg: int, shard: int, expected: int,
                      plan: _faults.FaultPlan) -> bytes:
        """One verified copy attempt, with the serve fault hooks applied.

        ``plan`` is the active fault plan, read once by the caller.  A
        shard in outage or under a ``shard-down`` fault raises before
        any byte moves (and consumes no read index); otherwise, while a
        plan is active, the attempt consumes one ``segread-*`` read
        index, exactly like disk faults key on the write index.
        Raises :class:`~repro.resilience.artifacts.ArtifactIntegrityError`
        on corruption (after quarantining),
        :class:`~repro.resilience.faults.InjectedFault` on a dead shard
        and :class:`OSError` on a copy missing with its sidecar.
        """
        if shard in self.down_shards:
            raise _faults.InjectedFault(
                f"shard {shard} is down (cluster outage)")
        path = self.path_on_shard(seg, shard)
        if plan.specs:
            down = plan.for_shard(shard)
            if down is not None:
                raise _faults.InjectedFault(
                    f"shard {shard} is down ({down.to_spec()})")
            spec = plan.for_segment_read(_faults.next_read_index())
            if spec is not None:
                if spec.mode == "segread-slow":
                    time.sleep(spec.seconds)
                elif spec.mode == "segread-corrupt":
                    _artifacts.corrupt_at_rest(path, spec)
        data = self._read_copy(path)
        if len(data) != expected:
            # size drift the sidecar did not catch (legacy sidecar-less
            # file): treat as corruption — quarantine and fail over
            problem = f"size {len(data)} B != expected {expected} B"
            self._records.pop(path, None)
            quarantined = _artifacts.quarantine_artifact(path, problem)
            raise _artifacts.ArtifactIntegrityError(path, problem, quarantined)
        return data

    def read_segment(self, seg: int, policy=None,
                     locations: Optional[Sequence[int]] = None) -> np.ndarray:
        """Segment ``seg`` as a ``(n_chunks_in_segment, cx, cy, cz)`` array.

        Bytes are hashed and checked on every attempt (see
        :meth:`_read_copy`); the read fails over copy by copy (corrupt
        copies are quarantined by the artifact layer, missing copies
        skipped, dead shards skipped by the breaker), a success after
        failures read-repairs the corrupt or missing copies, and only
        when every copy fails is the segment rebuilt from the origin.
        A wrong byte is never returned.

        ``locations`` — the shards to read from, in placement order:
        a cluster's versioned shard map; default the static
        :attr:`placement`.  A total failure rebuilds onto exactly the
        reachable subset of them.

        ``policy`` — an optional :class:`~repro.serve.reliability.
        ReadPolicy` supplying deadline checks and breaker routing;
        either way the shards are tried in placement order.
        """
        n = self.segment_chunk_count(seg)
        expected = n * self.chunk_bytes
        placed = self.placement.replicas_of(seg) if locations is None \
            else locations
        if policy is not None and policy.deadline is not None:
            policy.deadline.check()
        plan = _faults.active_plan()
        data: Optional[bytes] = None
        bad: List[int] = []   # shards whose copy is corrupt or missing
        quarantined: Optional[str] = None
        for shard in placed:
            breaker = None if policy is None else policy.breaker(shard)
            if breaker is not None and not breaker.allow():
                _trace.add("serve.reliability_breaker_denied", 1)
                continue
            try:
                data = self._read_replica(seg, shard, expected, plan)
            except _artifacts.ArtifactIntegrityError as exc:
                bad.append(shard)
                quarantined = exc.quarantined_to or quarantined
            except _faults.InjectedFault:
                pass  # shard outage: the replica's bytes are fine
            except OSError:
                bad.append(shard)  # copy missing with its sidecar
            else:
                if breaker is not None:
                    breaker.record_success()
                break
            if breaker is not None:
                breaker.record_failure()
            _trace.add("serve.reliability_failovers", 1)
            self.failovers += 1
        if data is None:
            # every copy failed or was denied: origin is the truth
            targets = [s for s in placed if s not in self.down_shards] \
                or list(placed)
            self.rebuild_segment(seg, targets, quarantined=quarantined)
            data = self._read_copy(self.path_on_shard(seg, targets[0]))
        else:
            for shard in bad:
                self._repair_copy(self.path_on_shard(seg, shard), data)
        # a read-only array over the verified bytes (no copy)
        return np.ndarray((n,) + self.chunk_shape, self.dtype, data)

    # -- assembly -------------------------------------------------------------

    def read_bbox(self, lo: Sequence[int], hi: Sequence[int],
                  fetch: Optional[Callable[[int, int], np.ndarray]] = None
                  ) -> np.ndarray:
        """Assemble the dense subvolume ``[lo, hi)`` from chunk blocks.

        One vectorized plan per call: every needed chunk's file slot,
        sorted, with its segment, its clipped box in the output and its
        offset inside the chunk.  The loop then only slice-copies.

        ``fetch(segment, n_chunks) -> segment array`` injects the
        caller's read path (the server passes its cache).  It is called
        once per run of ``n_chunks`` consecutive needed chunks of one
        segment, in **file-slot order**; since the slots are sorted,
        each touched segment is exactly one run.  A caller that counts
        ``n_chunks`` accesses per call therefore sees the chunk-by-chunk
        stream the placement produces.  The default reads each run's
        segment once with :meth:`read_segment`.
        """
        if fetch is None:
            def fetch(seg: int, n_chunks: int) -> np.ndarray:
                return self.read_segment(seg)
        lo = tuple(int(v) for v in lo)
        hi = tuple(int(v) for v in hi)
        slots = np.sort(self.slot_of[self.chunks_for_bbox(lo, hi)])
        origin = np.stack(self.chunk_coords(self.chunk_at[slots]),
                          axis=1) * self.chunk_shape
        a = np.maximum(origin, lo)
        b = np.minimum(origin + self.chunk_shape, hi)
        # per chunk: offset in segment, output box, box inside the chunk
        plan = np.column_stack((slots % self.chunks_per_segment, a - lo,
                                b - lo, a - origin, b - origin)).tolist()
        out = np.empty(tuple(y - x for x, y in zip(lo, hi)), dtype=self.dtype)
        segs, bounds = self.segment_runs(slots)
        for seg, start, stop in zip(segs, bounds, bounds[1:]):
            block = fetch(seg, stop - start)
            for off, x0, y0, z0, x1, y1, z1, i0, j0, k0, i1, j1, k1 \
                    in plan[start:stop]:
                out[x0:x1, y0:y1, z0:z1] = block[off, i0:i1, j0:j1, k0:k1]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ChunkStore(shape={self.shape}, chunk={self.chunk_shape}, "
                f"order={self.order!r}, segments={self.n_segments})")
