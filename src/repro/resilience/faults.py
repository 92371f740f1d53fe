"""Deterministic fault injection for the execution stack.

Recovery code that is never exercised is broken code.  This module lets
tests and the CI chaos-smoke job make a cell *deterministically* fail,
at a chosen cell index, on a chosen attempt:

``crash``
    ``os._exit(3)`` — the process dies abruptly, no exception, no
    cleanup.  In a worker this models an OOM kill / segfault; on the
    serial path it models the parent being SIGKILLed mid-batch (the
    checkpoint-resume acceptance scenario).
``raise``
    raise :class:`InjectedFault` — an ordinary in-band exception,
    classified transient by the retry policy.
``hang``
    sleep for ``seconds`` (default 3600) — models a wedged worker; only
    the supervised pool's per-cell timeout can reap it.
``corrupt``
    the cell "succeeds" but returns a schema-invalid payload — models
    a worker shipping garbage; result validation must quarantine it.
``oom``
    raise :class:`MemoryError` — models an allocation failure under
    memory pressure; the retry policy classifies it memory-pressure so
    the governor's degradation ladder (fewer workers, then no trace
    capture) engages.  See :mod:`repro.resilience.governor`.

A second family targets *durable writes* instead of cells.  These are
keyed on the process-local **write index** — the running count of
journal records and artifact files written since the plan was installed
(:func:`next_write_index`) — and model the disk failing under the
durability layer (:mod:`repro.resilience.artifacts`):

``enospc`` / ``eio``
    the write raises ``OSError`` (``ENOSPC`` / ``EIO``) before any byte
    lands — models a full or failing disk;
``torn``
    only the first half of the payload reaches disk — models a crash
    mid-write of a non-atomic writer (exactly the corruption the atomic
    writer prevents and verification-on-read must catch);
``bitflip``
    one byte of the payload is corrupted on disk (the first ASCII
    letter gets its case bit flipped, so JSON framing survives but the
    content — and therefore the checksum — does not) — models silent
    bit rot that only an integrity record can detect.

A third family targets the *serving read path*
(:mod:`repro.serve.store`).  ``segread-corrupt`` and ``segread-slow``
are keyed on the process-local **segment-read index** — the running
count of replica-read attempts since the plan was installed
(:func:`next_read_index`), mirroring the write-index scheme —
and ``shard-down`` is keyed on the simulated shard id and fires on
every read routed to that shard:

``segread-corrupt``
    the i-th segment read finds its bytes rotted at rest — the
    integrity sidecar must catch it and failover must route to the
    next replica (then read-repair rewrites the bad copy);
``segread-slow``
    the i-th segment read stalls for ``seconds`` before returning —
    models a degraded disk/replica; deadlines must engage;
``shard-down``
    every read addressed to shard ``index`` raises
    :class:`InjectedFault` — models a dead shard; the per-shard
    circuit breaker must trip and failover must carry the traffic.

A fourth family targets *cluster membership*
(:mod:`repro.serve.cluster`).  These are keyed on the cluster's
**event counter** — the deterministic tick index the failure detector
runs on — via the ``at=`` option, with the shard id before the colon:

``shard-kill``
    shard ``index`` goes down at cluster event ``at`` — the failure
    detector must mark it suspect then dead and the rebalancer must
    re-replicate its segments from healthy siblings;
``shard-join``
    shard ``index`` comes (back) up at cluster event ``at`` — the
    detector must walk it through the joining grace period and the
    map must re-admit it;
``shard-flap``
    shorthand for a kill at ``at`` followed by a join at
    ``at + down`` — the bounded outage that must *not* cause a wrong
    byte or a permanent membership change.

Faults are described by a compact spec string so they cross process
boundaries through the ``REPRO_FAULTS`` environment variable (worker
processes — forked or spawned — inherit the environment)::

    crash@2                 # crash cell 2, first attempt only
    hang@5:always           # hang cell 5 on every attempt
    hang@5:seconds=120      # hang duration override
    crash@1,corrupt@4       # plans compose with commas
    enospc@1,torn@3         # disk faults at write indexes 1 and 3
    shard-down@1,segread-slow@4:seconds=0.05   # serve faults
    shard-kill@2:at=8,shard-join@2:at=32       # cluster membership
    shard-flap@4:at=10:down=6                  # kill at 10, rejoin at 16

``@N:once`` (the default) fires on the first attempt only, so a retry
then succeeds — the shape of a genuinely transient fault.  ``:always``
makes the fault permanent, which is how tests force a cell into the
failure path.  Everything is keyed on (cell index, attempt) or the
write index: no randomness, no clocks, so a chaos run is exactly
reproducible.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FAULTS_ENV_VAR",
    "FaultSpec",
    "FaultPlan",
    "InjectedFault",
    "parse_faults",
    "install_faults",
    "clear_faults",
    "active_plan",
    "next_write_index",
    "reset_write_index",
    "next_read_index",
    "reset_read_index",
]

#: environment variable carrying the fault spec into worker processes
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: exit status used by the ``crash`` mode (distinctive in waitpid output)
CRASH_EXIT_CODE = 3

#: modes keyed on (cell index, attempt)
CELL_MODES = ("crash", "raise", "hang", "corrupt", "oom")

#: modes keyed on the process-local durable-write index
WRITE_MODES = ("enospc", "eio", "torn", "bitflip")

#: modes targeting the serving read path: the first two are keyed on
#: the process-local segment-read index, ``shard-down`` on the shard id
SERVE_MODES = ("segread-corrupt", "segread-slow", "shard-down")

#: modes targeting cluster membership: keyed on (shard id, cluster
#: event counter via the ``at=`` option); see repro.serve.cluster
CLUSTER_MODES = ("shard-kill", "shard-join", "shard-flap")

_MODES = CELL_MODES + WRITE_MODES + SERVE_MODES + CLUSTER_MODES


class InjectedFault(RuntimeError):
    """The exception raised by the ``raise`` fault mode."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what happens, at which cell index, on which attempts.

    Cluster modes reuse ``index`` for the shard id and carry the
    cluster event they fire at in ``at`` (``down`` is the flap's
    outage length in events).
    """

    mode: str
    index: int
    when: str = "once"      # "once" (attempt 1 only) or "always"
    seconds: float = 3600.0  # hang duration
    at: int = -1            # cluster event the membership change fires at
    down: int = 0           # shard-flap outage length, in cluster events

    def fires(self, index: int, attempt: int) -> bool:
        """True when this fault triggers for (cell ``index``, ``attempt``)."""
        if index != self.index:
            return False
        return self.when == "always" or attempt <= 1

    def to_spec(self) -> str:
        parts = [f"{self.mode}@{self.index}"]
        if self.when != "once":
            parts.append(self.when)
        if self.mode in ("hang", "segread-slow") and self.seconds != 3600.0:
            parts.append(f"seconds={self.seconds:g}")
        if self.at >= 0:
            parts.append(f"at={self.at}")
        if self.down:
            parts.append(f"down={self.down}")
        return ":".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultSpec`; first match wins."""

    specs: Tuple[FaultSpec, ...] = ()

    def for_cell(self, index: int, attempt: int) -> Optional[FaultSpec]:
        """The cell fault that fires for this (cell, attempt), if any."""
        for spec in self.specs:
            if spec.mode in CELL_MODES and spec.fires(index, attempt):
                return spec
        return None

    def for_write(self, index: int) -> Optional[FaultSpec]:
        """The disk fault that fires for this durable-write index, if any.

        Write indexes never repeat within a process, so the once/always
        distinction is moot here — the index match alone decides.
        """
        for spec in self.specs:
            if spec.mode in WRITE_MODES and spec.index == index:
                return spec
        return None

    def for_segment_read(self, index: int) -> Optional[FaultSpec]:
        """The serve fault that fires for this segment-read index, if any.

        Like write indexes, read indexes never repeat within a process.
        ``shard-down`` is keyed on the shard id, not the read index, so
        it never matches here (see :meth:`for_shard`).
        """
        for spec in self.specs:
            if spec.mode in ("segread-corrupt", "segread-slow") \
                    and spec.index == index:
                return spec
        return None

    def cluster_actions(self, event: int) -> "list[Tuple[str, int]]":
        """Membership changes scheduled for cluster ``event``.

        Returns ``("kill", shard)`` / ``("join", shard)`` pairs in spec
        order.  A ``shard-flap`` expands to a kill at ``at`` and a join
        at ``at + down``, so one spec exercises the whole outage
        window.  Keyed on the deterministic event counter — the same
        plan replays the same membership history every run.
        """
        actions = []
        for spec in self.specs:
            if spec.mode not in CLUSTER_MODES or spec.at < 0:
                continue
            if spec.mode == "shard-kill" and event == spec.at:
                actions.append(("kill", spec.index))
            elif spec.mode == "shard-join" and event == spec.at:
                actions.append(("join", spec.index))
            elif spec.mode == "shard-flap":
                if event == spec.at:
                    actions.append(("kill", spec.index))
                if event == spec.at + max(1, spec.down):
                    actions.append(("join", spec.index))
        return actions

    def for_shard(self, shard: int) -> Optional[FaultSpec]:
        """The ``shard-down`` fault covering simulated shard ``shard``.

        A downed shard stays down: the fault fires on every read routed
        to it regardless of the once/always flag.
        """
        for spec in self.specs:
            if spec.mode == "shard-down" and spec.index == shard:
                return spec
        return None

    def to_spec(self) -> str:
        return ",".join(spec.to_spec() for spec in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)


def parse_faults(spec: str) -> FaultPlan:
    """Parse a spec string (see module docstring) into a :class:`FaultPlan`."""
    specs = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, *opts = chunk.split(":")
        if "@" not in head:
            raise ValueError(f"fault {chunk!r}: expected MODE@INDEX")
        mode, _, index_text = head.partition("@")
        if mode not in _MODES:
            raise ValueError(f"fault {chunk!r}: unknown mode {mode!r} "
                             f"(known: {', '.join(_MODES)})")
        try:
            index = int(index_text)
        except ValueError:
            raise ValueError(f"fault {chunk!r}: index {index_text!r} "
                             f"is not an integer") from None
        when = "once"
        seconds = 3600.0
        at = -1
        down = 0
        for opt in opts:
            if opt in ("once", "always"):
                when = opt
            elif opt.startswith("seconds="):
                seconds = float(opt[len("seconds="):])
            elif opt.startswith("at="):
                at = int(opt[len("at="):])
            elif opt.startswith("down="):
                down = int(opt[len("down="):])
            else:
                raise ValueError(f"fault {chunk!r}: unknown option {opt!r}")
        if mode in CLUSTER_MODES and at < 0:
            raise ValueError(f"fault {chunk!r}: cluster modes need at=EVENT")
        specs.append(FaultSpec(mode=mode, index=index, when=when,
                               seconds=seconds, at=at, down=down))
    return FaultPlan(tuple(specs))


def install_faults(plan) -> FaultPlan:
    """Activate a fault plan process-wide (and for future workers).

    Accepts a :class:`FaultPlan` or a spec string.  The plan is exported
    via ``REPRO_FAULTS`` so worker processes — started before or after
    this call, forked or spawned — resolve the same plan.
    """
    if isinstance(plan, str):
        plan = parse_faults(plan)
    os.environ[FAULTS_ENV_VAR] = plan.to_spec()
    reset_write_index()
    reset_read_index()
    return plan


def clear_faults() -> None:
    """Deactivate fault injection for this process and future workers."""
    os.environ.pop(FAULTS_ENV_VAR, None)
    reset_write_index()
    reset_read_index()


def active_plan() -> FaultPlan:
    """The currently active plan (empty when fault injection is off)."""
    spec = os.environ.get(FAULTS_ENV_VAR)
    if not spec:
        return FaultPlan()
    return parse_faults(spec)


def fire(spec: FaultSpec) -> bool:
    """Execute a cell fault.  Returns True when the caller must corrupt
    its own payload (the ``corrupt`` mode is cooperative — only the cell
    runner knows what a payload looks like); the other modes never
    return normally or return False after sleeping."""
    if spec.mode == "crash":
        os._exit(CRASH_EXIT_CODE)
    if spec.mode == "raise":
        raise InjectedFault(
            f"injected fault at cell {spec.index} ({spec.to_spec()})")
    if spec.mode == "oom":
        raise MemoryError(
            f"injected allocation failure at cell {spec.index} "
            f"({spec.to_spec()})")
    if spec.mode == "hang":
        time.sleep(spec.seconds)
        return False
    if spec.mode == "corrupt":
        return True
    raise AssertionError(f"unhandled fault mode {spec.mode!r}")


# -- durable-write fault indexing -----------------------------------------------

# the running count of durable writes (journal records + artifact
# files) since the fault plan was installed; WRITE_MODES key on it
_WRITE_INDEX = [0]


def next_write_index() -> int:
    """Claim the next durable-write index (process-local, monotonic)."""
    index = _WRITE_INDEX[0]
    _WRITE_INDEX[0] = index + 1
    return index


def reset_write_index() -> None:
    """Restart write indexing (done by install_faults / clear_faults)."""
    _WRITE_INDEX[0] = 0


# -- segment-read fault indexing ------------------------------------------------

# the running count of replica-read attempts on the serving path since
# the fault plan was installed; segread-* modes key on it
_READ_INDEX = [0]


def next_read_index() -> int:
    """Claim the next segment-read index (process-local, monotonic)."""
    index = _READ_INDEX[0]
    _READ_INDEX[0] = index + 1
    return index


def reset_read_index() -> None:
    """Restart read indexing (done by install_faults / clear_faults)."""
    _READ_INDEX[0] = 0
