"""Fault-tolerant serving: deadlines, retries, failover, breakers.

PR 7's serving stack assumed a healthy store: one corrupt segment
without an ``origin``, one slow disk, or one overloaded session and a
query fails or stalls.  This module is the policy layer that makes
:class:`~repro.serve.server.VolumeServer` survive all three, built on
the same resilience primitives the experiment harness uses
(:mod:`repro.resilience.policy`, :mod:`repro.resilience.faults`):

* :class:`Deadline` — a cooperative per-query deadline token.  The
  read path calls :meth:`Deadline.check` between segment reads, so a
  query never stalls past its budget inside synchronous processing
  (asyncio cancellation can only land at an ``await``, and the span
  discipline keeps processing synchronous).
* :class:`CircuitBreaker` — per-shard, **clock-free**: it trips open
  after ``threshold`` consecutive faults, then counts *denied
  requests* instead of seconds; after ``probe_after`` denials it
  half-opens and lets exactly one probe through.  Success closes it,
  failure re-trips.  No wall clock means a chaos run replays the same
  state machine every time.
* :class:`ReadPolicy` — the store-facing bundle: breaker routing and
  the deadline hook.  :meth:`~repro.serve.store.ChunkStore.read_segment`
  consults it on every replica attempt.
* :class:`QueryRejected` — the typed result a shed / failed query
  returns.  Rejection is an *answer*, never a hang: a session's
  results always line up 1:1 with its queries, and every rejection is
  accounted in a ``serve.reliability_*`` counter.

All knobs live on the frozen :class:`ReliabilityConfig`; a server
constructed without one keeps PR 7's raise-on-failure behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..instrument import trace as _trace
from ..resilience.policy import RetryPolicy

__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "CircuitBreaker",
    "ReadPolicy",
    "ReliabilityConfig",
    "QueryRejected",
]


class DeadlineExceeded(RuntimeError):
    """A query's deadline expired mid-processing (cooperatively raised)."""


@dataclass
class Deadline:
    """Cooperative deadline token for one query attempt.

    ``seconds=None`` never expires.  The clock starts at construction;
    the read path calls :meth:`check` between segment reads, which is
    the only place synchronous processing can yield to a budget.
    """

    # deadlines are wall-clock *by design* — they bound real latency,
    # not control flow; membership/breaker decisions stay clock-free
    seconds: Optional[float]
    started: float = field(
        default_factory=time.perf_counter)  # repro: noqa[RPC205]

    def remaining(self) -> float:
        """Seconds left (``inf`` for a boundless deadline)."""
        if self.seconds is None:
            return float("inf")
        elapsed = time.perf_counter() - self.started  # repro: noqa[RPC205]
        return self.seconds - elapsed

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"query deadline of {self.seconds:g}s expired")


class CircuitBreaker:
    """Per-shard breaker with a clock-free half-open probe schedule.

    States: ``closed`` (healthy) → ``open`` after ``threshold``
    consecutive faults → ``half-open`` after ``probe_after`` denied
    requests, which admits one probe; a successful probe closes the
    breaker, a failed one re-opens it (and the denial count restarts).
    Counting denials instead of seconds keeps chaos runs replayable:
    the same request sequence walks the same state sequence.
    """

    def __init__(self, shard: int, *, threshold: int = 3,
                 probe_after: int = 8):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if probe_after < 1:
            raise ValueError(f"probe_after must be >= 1, got {probe_after}")
        self.shard = shard
        self.threshold = threshold
        self.probe_after = probe_after
        self.state = "closed"
        self.consecutive_failures = 0
        self.denied = 0

    def allow(self) -> bool:
        """May a read be routed to this shard right now?

        An ``open`` breaker counts the denial; the ``probe_after``-th
        denial half-opens it and admits the caller as the probe.
        """
        if self.state != "open":
            return True
        self.denied += 1
        if self.denied >= self.probe_after:
            self.state = "half-open"
            self.denied = 0
            _trace.add("serve.reliability_breaker_half_open", 1)
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != "closed":
            self.state = "closed"
            _trace.add("serve.reliability_breaker_close", 1)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        trip = (self.state == "half-open"
                or self.consecutive_failures >= self.threshold)
        if trip and self.state != "open":
            self.state = "open"
            self.denied = 0
            _trace.add("serve.reliability_breaker_open", 1)


@dataclass(frozen=True)
class ReliabilityConfig:
    """Every serving-resilience knob, in one frozen bundle.

    ``deadline_s=None`` disables deadlines; ``max_inflight=None``
    disables admission control (nothing is ever shed).  ``retry`` is a
    standard :class:`~repro.resilience.policy.RetryPolicy` — a failed
    *query attempt* (not a single replica read) is retried per its
    classification, each retry with a fresh deadline.
    """

    deadline_s: Optional[float] = None
    max_inflight: Optional[int] = None
    retry: RetryPolicy = RetryPolicy(max_retries=2, backoff_base=0.01)
    breaker_threshold: int = 3
    breaker_probe_after: int = 8

    def __post_init__(self):
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}")


@dataclass
class QueryRejected:
    """The typed answer a shed or failed query gets — never a hang.

    ``reason`` is ``"shed"`` (admission control turned it away),
    ``"deadline"`` (every attempt ran out of budget) or ``"error"``
    (every attempt failed and the retry policy gave up); ``error``
    carries the last failure string and ``attempts`` how many times
    the query ran.  ``ok`` mirrors :class:`~repro.serve.server.
    QueryResult` so sessions filter with one predicate.
    """

    query: object
    reason: str
    error: str = ""
    attempts: int = 0

    ok = False


class ReadPolicy:
    """The store-facing routing policy one server instance owns.

    Holds the per-shard breakers; the server refreshes
    :attr:`deadline` per query attempt.
    Store and server mutate it only inside synchronous processing
    sections, so no locks are needed and replays are deterministic.
    """

    def __init__(self, config: ReliabilityConfig):
        self.config = config
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.deadline: Optional[Deadline] = None

    def breaker(self, shard: int) -> CircuitBreaker:
        br = self.breakers.get(shard)
        if br is None:
            br = CircuitBreaker(shard,
                                threshold=self.config.breaker_threshold,
                                probe_after=self.config.breaker_probe_after)
            self.breakers[shard] = br
        return br

    def allow_shard(self, shard: int) -> bool:
        """Breaker gate for one replica read."""
        return self.breaker(shard).allow()

    def on_success(self, shard: int) -> None:
        self.breaker(shard).record_success()

    def on_failure(self, shard: int) -> None:
        self.breaker(shard).record_failure()

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceeded` when the attempt's budget is
        spent (no-op when no deadline is set)."""
        if self.deadline is not None:
            self.deadline.check()
