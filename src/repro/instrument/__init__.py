"""Measurement facade: metrics, PAPI-style event sets, tracing, manifests.

Three layers:

* :mod:`repro.instrument.metrics` — the paper's d_s (Eq. 4) and derived
  per-level metrics;
* :mod:`repro.instrument.papi` — PAPI-style start/stop/read event sets
  over a simulated :class:`~repro.memsim.hierarchy.Machine`;
* :mod:`repro.instrument.trace` + :mod:`repro.instrument.manifest` —
  the observability layer: structured spans/counters emitted as
  JSON-lines, and self-describing run manifests (config hash, git SHA,
  platform, seed, per-phase rollups) stamped onto experiment output.
"""

from . import trace
from .manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    config_hash,
    cross_check,
    git_sha,
    validate_manifest,
    validate_trace_file,
    write_manifest,
)
from .metrics import (
    derived_metrics,
    ds_dict,
    scaled_relative_difference,
    speedup_from_ds,
)
from .papi import EventSet
from .trace import TRACE_SCHEMA_VERSION, Tracer, render_summary

__all__ = [
    "EventSet",
    "MANIFEST_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "build_manifest",
    "config_hash",
    "cross_check",
    "derived_metrics",
    "ds_dict",
    "git_sha",
    "render_summary",
    "scaled_relative_difference",
    "speedup_from_ds",
    "trace",
    "validate_manifest",
    "validate_trace_file",
    "write_manifest",
]
