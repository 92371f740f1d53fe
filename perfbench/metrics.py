"""Metric names and units, shared by the launcher and the worker."""

#: end-to-end metrics (untraced run), in report order, with their units
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

#: per-layer metrics (traced run), in report order, with their units
PER_LAYER = {
    "memsim.replay_s": "s",
    "memsim.replay_lines": "count",
    "memsim.lines_per_s": "1/s",
    "memsim.stack_cells": "count",
    "kernels.trace_gen_s": "s",
    "kernels.accesses": "count",
    "core.index_array_s": "s",
    "experiments.cell_setup_s": "s",
    "experiments.other_s": "s",
    "serve.store.assemble_s": "s",
    "serve.store.plan_s": "s",
    "serve.cache.get_s": "s",
    "serve.server.other_s": "s",
    "serve.store.read_segment_s": "s",
    "resilience.read_artifact_s": "s",
    "resilience.bytes_verified": "B",
    "serve.cluster.tick_s": "s",
    "serve.cluster.settle_s": "s",
    "resilience.write_artifact_s": "s",
    "serve.cluster.segments_moved": "count",
    "serve.cluster.scrub_checked": "count",
    "serve.store.failovers": "count",
    "serve.cluster.under_replicated_peak": "count",
    "serve.cache.hit_ratio": "1",
    "serve.cache.accesses": "count",
    "serve.segments_touched": "count",
    "serve.chunks_needed": "count",
    "serve.utilization": "1",
    "serve.store.create_s": "s",
    "instrument.trace_overhead_ratio": "1",
}
