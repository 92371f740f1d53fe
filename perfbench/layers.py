"""Per-layer tracing for the benchmark's traced run.

The benchmark wraps each layer's public entry points in spans on the
program's own tracer (:mod:`repro.instrument.trace`), so the spans the
program already emits (``cell.setup``, ``engine.replay``,
``bilateral.pencil``, ``volrend.tile``, ``serve.query``) nest with the
benchmark's into one tree.  A layer's self time is the summed duration
of its spans minus the time their direct child spans cover.

The untraced run never installs these wrappers.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.layout import Layout
from repro.experiments import harness
from repro.instrument import trace
from repro.resilience import artifacts
from repro.serve import ChunkStore, LRUCache, ShardCluster, VolumeServer

from metrics import PER_LAYER

#: which self-time metric each span name feeds
SELF_TIME_OF: Dict[str, str] = {
    "engine.replay": "memsim.replay_s",
    "bilateral.pencil": "kernels.trace_gen_s",
    "volrend.tile": "kernels.trace_gen_s",
    "core.index_array": "core.index_array_s",
    "cell.setup": "experiments.cell_setup_s",
    "cell": "experiments.other_s",
    "cell.trace_gen": "experiments.other_s",
    "cell.simulate": "experiments.other_s",
    "engine.cost": "experiments.other_s",
    "experiments.simulate_prepared": "experiments.other_s",
    "serve.store.assemble": "serve.store.assemble_s",
    "serve.store.plan": "serve.store.plan_s",
    "serve.cache.get": "serve.cache.get_s",
    "serve.server.query": "serve.server.other_s",
    "serve.server.serve": "serve.server.other_s",
    "serve.query": "serve.server.other_s",
    "serve.store.read_segment": "serve.store.read_segment_s",
    "resilience.read_artifact": "resilience.read_artifact_s",
    "resilience.write_artifact": "resilience.write_artifact_s",
    "serve.cluster.tick": "serve.cluster.tick_s",
    "serve.cluster.settle": "serve.cluster.settle_s",
}


def _entry_points() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, bytes counter) per wrapped entry point.

    The counter, when given, maps the call's result to the ``bytes`` it
    moved, accumulated on the span.
    """
    points = [
        (harness, "simulate_prepared", "experiments.simulate_prepared", None),
        (ChunkStore, "chunks_for_bbox", "serve.store.plan", None),
        (ChunkStore, "read_bbox", "serve.store.assemble", None),
        (ChunkStore, "read_segment", "serve.store.read_segment", None),
        (ChunkStore, "create", "serve.store.create", None),
        (LRUCache, "get", "serve.cache.get", None),
        (artifacts, "read_artifact", "resilience.read_artifact", len),
        (artifacts, "write_artifact", "resilience.write_artifact", None),
        (ShardCluster, "tick", "serve.cluster.tick", None),
        (ShardCluster, "settle", "serve.cluster.settle", None),
        (VolumeServer, "query", "serve.server.query", None),
        (VolumeServer, "serve", "serve.server.serve", None),
    ]
    layouts, todo = [], [Layout]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "index_array" in vars(cls) and \
                not getattr(cls.index_array, "__isabstractmethod__", False):
            layouts.append(cls)
    points.extend((cls, "index_array", "core.index_array", None)
                  for cls in layouts)
    return points


class _Sliced:
    """Await a coroutine with one span per resumption.

    A span that stayed open across an ``await`` would interleave with
    the other client's spans on the tracer's single stack; a span per
    slice nests cleanly and counts only the time the coroutine runs.
    """

    def __init__(self, tracer: trace.Tracer, name: str, coro):
        self.tracer, self.name, self.coro = tracer, name, coro

    def __await__(self):
        message, error = None, None
        while True:
            with self.tracer.span(self.name):
                try:
                    if error is None:
                        yielded = self.coro.send(message)
                    else:
                        yielded = self.coro.throw(error)
                except StopIteration as stop:
                    return stop.value
            try:
                message, error = (yield yielded), None
            except BaseException as exc:  # forwarded into the coroutine
                message, error = None, exc


def _wrap(fn, tracer: trace.Tracer, name: str, count: Optional[Callable]):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            return await _Sliced(tracer, name, fn(*args, **kwargs))
        return traced_async

    if count is not None:
        @functools.wraps(fn)
        def traced_counted(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                sp.add("bytes", count(result))
                return result
        return traced_counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


class Traced:
    """Context manager: wrap every entry point and record into a fresh tracer."""

    def __enter__(self) -> trace.Tracer:
        self.tracer = trace.Tracer()
        self._saved = []
        for owner, attr, name, count in _entry_points():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(original.__func__, self.tracer,
                                            name, count))
            else:
                wrapped = _wrap(original, self.tracer, name, count)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        self._previous = trace.activate(self.tracer)
        return self.tracer

    def __exit__(self, *exc) -> bool:
        trace.activate(self._previous)
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False


def self_times(records: Iterable[Mapping]) -> Dict[str, float]:
    """Summed self time per span name: duration minus direct children."""
    records = list(records)
    covered: Dict[int, float] = defaultdict(float)
    for rec in records:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["dur"]
    out: Dict[str, float] = defaultdict(float)
    for rec in records:
        out[rec["name"]] += rec["dur"] - covered[rec["id"]]
    return dict(out)


def layer_metrics(window: trace.Tracer, setup: trace.Tracer,
                  counts: Mapping[str, float],
                  overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric from the traced window (0 where unreached).

    ``counts`` carries the exact counts the workload read off the
    program's own counters for the window; ``setup`` is the tracer that
    recorded set-up, which only ``serve.store.create_s`` reads.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    for span, seconds in self_times(window.records).items():
        metric = SELF_TIME_OF.get(span)
        if metric is not None:
            out[metric] += seconds
    for rec in window.records:
        if rec["name"] == "engine.replay":
            out["memsim.replay_lines"] += rec["counters"].get("lines", 0)
            if rec["attrs"].get("backend") == "stack":
                out["memsim.stack_cells"] += 1
        elif rec["name"] == "cell.trace_gen":
            out["kernels.accesses"] += rec["counters"].get("accesses", 0)
        elif rec["name"] == "resilience.read_artifact":
            out["resilience.bytes_verified"] += rec["counters"]["bytes"]
    if out["memsim.replay_s"] > 0:
        out["memsim.lines_per_s"] = \
            out["memsim.replay_lines"] / out["memsim.replay_s"]
    out["serve.store.create_s"] = sum(
        rec["dur"] for rec in setup.records
        if rec["name"] == "serve.store.create")
    out.update(counts)
    out["instrument.trace_overhead_ratio"] = overhead_ratio
    return {name: float(value) for name, value in out.items()}
