"""Structured tracing: nestable spans + counters → JSON-lines files.

The paper's argument is measurement, and every perf PR on top of this
reproduction needs its costs *attributed*: where inside a cell run does
the wall time go (dataset setup? stream generation? cache replay?), and
how much traffic did each kernel unit (pencil, tile) generate?  This
module is that substrate: a deliberately small tracer in the spirit of
Chrome's trace-event format, flattened to JSON-lines so traces stream,
merge, and grep.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Instrumented code calls the
   module-level :func:`span` / :func:`add`; when no tracer is installed
   these return a shared no-op span / fall through immediately.  No
   timestamps are taken, nothing allocates but the kwargs dict.
   ``scripts/bench_trace.py`` holds this to < 5 % of a cell run.
2. **Nestable spans with counters.**  A span is a named, timed region
   with string-keyed attributes (set once) and numeric counters
   (accumulated); spans nest via a stack, and each record carries its
   parent id and depth so the tree can be rebuilt.
3. **Phases that tile their region.**  The children of a :func:`tiled`
   span share one clock read per boundary, so they sum to the span's
   duration: a preemption between two phases lands in one of them.
4. **Process-merge friendly.**  Worker processes trace into their own
   :class:`Tracer` and ship finished records back (they are plain
   dicts); :meth:`Tracer.absorb` re-tags and renumbers them into the
   parent so one ordered JSON-lines file comes out (see
   :mod:`repro.experiments.parallel`).

Typical instrumentation::

    from ..instrument import trace

    with trace.span("cell.simulate", platform=spec.name) as sp:
        result = engine.run(works)
        sp.add("accesses", result.n_accesses)

and for a one-shot run::

    tracer = trace.enable()
    run_bilateral_cell(cell)
    trace.disable()
    tracer.write_jsonl("trace.jsonl")

The tracer is process-local and not thread-safe (nothing in this
library shares a tracer across OS threads; simulated threads live in
one interpreter thread).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TRACE_SCHEMA_VERSION",
    "enable",
    "disable",
    "activate",
    "current",
    "span",
    "tiled",
    "add",
    "render_summary",
]

#: bumped whenever the record format changes incompatibly
TRACE_SCHEMA_VERSION = 1


class Span:
    """One open (or finished) traced region.

    Returned by :meth:`Tracer.span` as the ``with`` target; use
    :meth:`set` for one-shot attributes and :meth:`add` for numeric
    counters.  The record is appended to the tracer when the block
    exits.
    """

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "depth",
                 "t0", "t1", "attrs", "counters", "mark")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], depth: int, t0: float,
                 attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs
        self.counters: Dict[str, float] = {}
        #: where a tiled span's next child starts; None when not tiled
        self.mark: Optional[float] = None

    def set(self, key: str, value) -> None:
        """Set (or overwrite) one attribute on this span."""
        self.attrs[key] = value

    def add(self, name: str, value) -> None:
        """Accumulate ``value`` into counter ``name`` on this span."""
        self.counters[name] = self.counters.get(name, 0) + value

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "open" if self.t1 is None else f"{self.duration:.6f}s"
        return f"Span({self.name!r}, {state})"

    @property
    def duration(self) -> float:
        """Span duration in seconds (0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, key: str, value) -> None:
        pass

    def add(self, name: str, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects span records; one per process (workers ship theirs back).

    Timestamps are seconds relative to the tracer's creation (its
    *epoch*), taken from :func:`time.perf_counter` — monotonic within a
    process, not comparable across processes, which is why merged files
    are ordered by ``(cell, t0)`` rather than raw time.
    """

    def __init__(self):
        self.epoch = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        #: counters accumulated outside any span
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span; use as a context manager.  Inside a
        :func:`tiled` span it starts where its previous sibling ended."""
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.mark is not None:
            t0 = parent.mark
        else:
            t0 = time.perf_counter() - self.epoch
        sp = Span(
            self, name, self._next_id,
            None if parent is None else parent.span_id,
            len(self._stack), t0, attrs,
        )
        self._next_id += 1
        self._stack.append(sp)
        return sp

    def add(self, name: str, value) -> None:
        """Accumulate a counter on the innermost open span (or the trace)."""
        if self._stack:
            self._stack[-1].add(name, value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value

    def _finish(self, sp: Span) -> None:
        if not self._stack or self._stack[-1] is not sp:
            raise RuntimeError(
                f"span {sp.name!r} closed out of order; open stack: "
                f"{[s.name for s in self._stack]}"
            )
        self._stack.pop()
        sp.t1 = time.perf_counter() - self.epoch
        if sp.mark is not None:
            rest = Span(self, sp.name + ".finish", self._next_id,
                        sp.span_id, sp.depth + 1, sp.mark, {})
            self._next_id += 1
            rest.t1 = sp.t1
            self._append(rest)
        if self._stack and self._stack[-1].mark is not None:
            self._stack[-1].mark = sp.t1
        self._append(sp)

    def _append(self, sp: Span) -> None:
        self.records.append({
            "type": "span",
            "name": sp.name,
            "id": sp.span_id,
            "parent": sp.parent_id,
            "depth": sp.depth,
            "t0": sp.t0,
            "t1": sp.t1,
            "dur": sp.t1 - sp.t0,
            "attrs": sp.attrs,
            "counters": sp.counters,
            "pid": os.getpid(),
        })

    # -- merging ------------------------------------------------------------

    def absorb(self, records: List[Dict[str, Any]], **tags) -> None:
        """Merge finished records from another tracer (e.g. a worker).

        Ids are renumbered into this tracer's id space (parent links
        preserved), and ``tags`` (typically ``cell=<index>``) are added
        to every absorbed record's attrs so merged traces stay
        attributable.
        """
        remap: Dict[int, int] = {}
        for rec in records:
            remap[rec["id"]] = self._next_id
            self._next_id += 1
        for rec in records:
            merged = dict(rec)
            merged["id"] = remap[rec["id"]]
            parent = rec.get("parent")
            merged["parent"] = remap.get(parent) if parent is not None else None
            merged["attrs"] = {**rec.get("attrs", {}), **tags}
            self.records.append(merged)

    # -- output -------------------------------------------------------------

    @staticmethod
    def _order_key(rec):
        """Merged-file ordering: by cell (untagged records first), then
        by start time, which is monotonic within each record's source
        process."""
        cell = rec.get("attrs", {}).get("cell", -1)
        return (cell, rec["t0"], rec["id"])

    def ordered_records(self) -> List[Dict[str, Any]]:
        """Records sorted by the merged-file order (see :meth:`_order_key`)."""
        return sorted(self.records, key=self._order_key)

    def write_jsonl(self, path: str) -> int:
        """Write a meta header plus one JSON object per span; returns the
        number of span records written.

        The write goes through the durability layer (atomic replace +
        sidecar integrity record) so a run killed mid-write never
        leaves a torn trace for the validators to choke on.
        """
        from ..resilience import artifacts as _artifacts

        records = self.ordered_records()
        lines = [json.dumps({
            "type": "meta",
            "schema_version": TRACE_SCHEMA_VERSION,
            "n_spans": len(records),
            "counters": self.counters,
        })]
        lines.extend(json.dumps(rec, default=_json_default)
                     for rec in records)
        _artifacts.write_text_artifact(
            path, "".join(line + "\n" for line in lines),
            kind="trace", schema_version=TRACE_SCHEMA_VERSION)
        return len(records)

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-span-name rollup: count, total/min/max duration, counters."""
        out: Dict[str, Dict[str, Any]] = {}
        for rec in self.records:
            entry = out.setdefault(rec["name"], {
                "count": 0, "total_seconds": 0.0,
                "min_seconds": float("inf"), "max_seconds": 0.0,
                "counters": {},
            })
            entry["count"] += 1
            entry["total_seconds"] += rec["dur"]
            entry["min_seconds"] = min(entry["min_seconds"], rec["dur"])
            entry["max_seconds"] = max(entry["max_seconds"], rec["dur"])
            for cname, value in rec.get("counters", {}).items():
                entry["counters"][cname] = (
                    entry["counters"].get(cname, 0) + value)
        return out


def _json_default(obj):
    """Serialize the numpy scalars that counters naturally pick up."""
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)


# -- module-level current tracer ------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer; spans start recording."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable() -> Optional[Tracer]:
    """Stop recording; returns the tracer that was active (if any)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def activate(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Swap the active tracer, returning the previous one (for restore)."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, tracer
    return previous


def current() -> Optional[Tracer]:
    """The active tracer, or None when tracing is disabled."""
    return _ACTIVE


def span(name: str, **attrs):
    """Open a span on the active tracer; a shared no-op when disabled.

    This is the one call instrumented code makes on its hot(ish) paths,
    so the disabled branch is a single global load and compare.
    """
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, **attrs)


def tiled(name: str, **attrs) -> Span:
    """Open a span that its children tile, with no gap between them.

    Each child starts where the previous one ended, the first at this
    span's start, and closing the span records the time after its last
    child as a final child ``<name>.finish``.  While tracing is disabled
    the span runs on a throwaway tracer, so its ``duration`` is read at
    the same boundaries either way.
    """
    sp = (_ACTIVE or Tracer()).span(name, **attrs)
    sp.mark = sp.t0
    return sp


def add(name: str, value) -> None:
    """Accumulate a counter on the active tracer; no-op when disabled."""
    if _ACTIVE is not None:
        _ACTIVE.add(name, value)


def render_summary(tracer: Tracer) -> str:
    """Human-readable per-phase rollup table (the ``--trace-summary`` view)."""
    rows = sorted(tracer.summary().items(),
                  key=lambda kv: kv[1]["total_seconds"], reverse=True)
    lines = [f"{'span':<24} {'count':>7} {'total (s)':>12} {'mean (ms)':>12}"]
    for name, entry in rows:
        mean_ms = entry["total_seconds"] / entry["count"] * 1e3
        lines.append(f"{name:<24} {entry['count']:>7} "
                     f"{entry['total_seconds']:>12.6f} {mean_ms:>12.3f}")
        if entry["counters"]:
            pretty = ", ".join(f"{k}={v:g}" for k, v in
                               sorted(entry["counters"].items()))
            lines.append(f"{'':<24}   {pretty}")
    return "\n".join(lines)
