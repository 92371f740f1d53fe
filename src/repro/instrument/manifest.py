"""Run manifests: self-describing stamps for experiment results.

A *manifest* is a small JSON document written next to a trace file (or
a figure/BENCH output) that records everything needed to trust, compare
and regress the numbers later: which code (git SHA, package version),
which configuration (a stable hash of each cell's full parameter set),
which platform model and seed, and where the time went (per-phase
rollups from the tracer).  The schema is deliberately flat and
validated by hand — no external JSON-schema dependency.

CI feeds every traced smoke run and chaos scenario through ``repro
trace validate`` (:func:`validate_trace_file`, :func:`validate_manifest`
and :func:`cross_check`), so the formats cannot drift silently.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform as _platform
import subprocess
import sys
import time
from typing import Any, Dict, Iterable, List, Optional

from .trace import TRACE_SCHEMA_VERSION, Tracer

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "config_hash",
    "git_sha",
    "build_manifest",
    "cross_check",
    "write_manifest",
    "serve_entries_from_records",
    "validate_manifest",
    "validate_trace_file",
]

#: bumped whenever the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1


def config_hash(cell) -> str:
    """Stable short hash of a cell's complete configuration.

    Dataclass ``repr`` is deterministic field order and covers nested
    dataclasses (the platform spec with all its cache geometry), so two
    cells hash equal iff every parameter matches.
    """
    if not dataclasses.is_dataclass(cell):
        raise TypeError(f"expected a dataclass cell, got {type(cell).__name__}")
    return hashlib.sha256(repr(cell).encode()).hexdigest()[:16]


def git_sha() -> Optional[str]:
    """The repository HEAD commit, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and len(sha) == 40 else None


def _cell_entries(tracer: Tracer) -> list:
    """One manifest entry per ``cell`` span in the trace, in merge order."""
    entries = []
    for rec in tracer.ordered_records():
        if rec["name"] != "cell":
            continue
        attrs = rec.get("attrs", {})
        entries.append({
            "index": attrs.get("cell", len(entries)),
            "kind": attrs.get("kind"),
            "layout": attrs.get("layout"),
            "platform": attrs.get("platform"),
            "seed": attrs.get("seed"),
            "shape": attrs.get("shape"),
            "config_sha256": attrs.get("config"),
            "wall_seconds": attrs.get("wall_seconds", rec["dur"]),
            "counters": rec.get("counters", {}),
        })
    return entries


def _resilience_entries(tracer: Tracer) -> Dict[str, Any]:
    """The batch recovery stats :func:`repro.experiments.parallel
    .run_cells_parallel` accumulates as top-level ``resilience.*``
    counters (attempts, retries, timeouts, worker deaths, restored /
    quarantined cells) — empty when no resilience feature engaged."""
    prefix = "resilience."
    return {name[len(prefix):]: value
            for name, value in tracer.counters.items()
            if name.startswith(prefix)}


def _sanitize_entries(tracer: Tracer) -> Dict[str, Any]:
    """The access-sanitizer tallies :mod:`repro.memsim.sanitize` emits
    as ``sanitize.*`` counters (batches, accesses, validated layouts,
    violations by kind) — empty when the sanitizer was not enabled.

    The sanitizer counts from inside whatever span is open, so the
    rollup sums span counters (including cell spans merged back from
    worker processes) as well as the tracer's top-level counters."""
    prefix = "sanitize."
    entries: Dict[str, Any] = {}
    sources = [tracer.counters]
    sources.extend(rec.get("counters", {}) for rec in tracer.records)
    for counters in sources:
        for name, value in counters.items():
            if name.startswith(prefix):
                key = name[len(prefix):]
                entries[key] = entries.get(key, 0) + value
    return entries


def _serve_entries(tracer: Tracer) -> Dict[str, Any]:
    """The serving-reliability tallies :mod:`repro.serve` emits as
    ``serve.*`` counters (segments rebuilt, failovers, read repairs,
    retries, shed queries, breaker transitions) — empty when
    no serving ran.

    The store and server count from inside whatever query span is
    open, so the rollup sums span counters as well as the tracer's
    top-level counters; the ``serve.session`` span's latency rollups
    (p50/p99 ms, deadline misses) merge in as plain numeric entries,
    and a ``serve.cluster`` span's membership rollups (final map
    version, ok/rejected, residual under-replication) merge in under
    a ``cluster_`` prefix next to the ``cluster_*`` counters.
    """
    return serve_entries_from_records(tracer.records, tracer.counters)


def serve_entries_from_records(
        records: Iterable[Dict[str, Any]],
        top_counters: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Derive the manifest ``serve`` section from span records.

    ``records`` are span dicts (a tracer's in-memory records or the
    span lines of a written trace file) and ``top_counters`` the
    counters accumulated outside any span (a live tracer's
    ``counters``, or the meta header's ``counters`` when re-deriving
    from a file).  :func:`cross_check` recomputes the section through
    this same function and holds the manifest to it, so a
    ``serve.cluster_*`` / ``serve.scrub_*`` tally can never silently
    drift from the trace that produced it.
    """
    prefix = "serve."
    entries: Dict[str, Any] = {}
    sources = [top_counters or {}]
    sources.extend(rec.get("counters") or {} for rec in records)
    for counters in sources:
        for name, value in counters.items():
            if name.startswith(prefix):
                key = name[len(prefix):]
                entries[key] = entries.get(key, 0) + value
    for rec in records:
        attrs = rec.get("attrs") or {}
        if rec.get("name") == "serve.session":
            for key in ("p50_ms", "p99_ms", "ok", "rejected", "shed",
                        "deadline_misses"):
                if isinstance(attrs.get(key), (int, float)):
                    entries[key] = attrs[key]
        elif rec.get("name") == "serve.cluster":
            for key in ("ok", "rejected", "map_version",
                        "under_replicated"):
                if isinstance(attrs.get(key), (int, float)):
                    entries[f"cluster_{key}"] = attrs[key]
    return entries


def build_manifest(tracer: Tracer,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the manifest for one traced run.

    ``extra`` entries (e.g. the CLI argv) are merged in under ``run``.
    When the run used retries / timeouts / checkpoint-resume, their
    counts appear under ``resilience`` (absent otherwise); a run under
    the access sanitizer likewise stamps its ``sanitize`` tallies.
    """
    from .. import __version__

    manifest: Dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "trace_schema_version": TRACE_SCHEMA_VERSION,
        "created_unix": time.time(),
        "tool": {"name": "repro", "version": __version__},
        "git_sha": git_sha(),
        "host": {
            "python": sys.version.split()[0],
            "platform": _platform.platform(),
        },
        "run": dict(extra or {}),
        "cells": _cell_entries(tracer),
        "phases": tracer.summary(),
    }
    resilience = _resilience_entries(tracer)
    if resilience:
        manifest["resilience"] = resilience
    sanitize = _sanitize_entries(tracer)
    if sanitize:
        manifest["sanitize"] = sanitize
    serve = _serve_entries(tracer)
    if serve:
        manifest["serve"] = serve
    return manifest


def write_manifest(path: str, manifest: Dict[str, Any]) -> None:
    """Write a (validated) manifest as indented JSON.

    Atomic, with a sidecar integrity record (see
    :mod:`repro.resilience.artifacts`) — a manifest is the document
    other artifacts are trusted *through*, so it is the last place a
    torn write or a bit flip may go unnoticed.
    """
    from ..resilience import artifacts as _artifacts

    validate_manifest(manifest)
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    _artifacts.write_text_artifact(path, text, kind="manifest",
                                   schema_version=MANIFEST_SCHEMA_VERSION)


# -- validation -----------------------------------------------------------------


def _fail(problems: Iterable[str], what: str) -> None:
    problems = list(problems)
    if problems:
        raise ValueError(f"invalid {what}: " + "; ".join(problems))


def validate_manifest(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Check the manifest against the schema; raises ValueError on drift."""
    problems = []
    if not isinstance(manifest, dict):
        raise ValueError(f"invalid manifest: not an object "
                         f"({type(manifest).__name__})")
    for key, kind in (("schema_version", int), ("created_unix", (int, float)),
                      ("tool", dict), ("host", dict), ("run", dict),
                      ("cells", list), ("phases", dict)):
        if key not in manifest:
            problems.append(f"missing key {key!r}")
        elif not isinstance(manifest[key], kind):
            problems.append(f"{key!r} is {type(manifest[key]).__name__}")
    if manifest.get("schema_version") not in (None, MANIFEST_SCHEMA_VERSION):
        problems.append(
            f"schema_version {manifest['schema_version']} != "
            f"{MANIFEST_SCHEMA_VERSION}")
    sha = manifest.get("git_sha")
    if sha is not None and (not isinstance(sha, str) or len(sha) != 40):
        problems.append(f"git_sha {sha!r} is not a 40-char hex string")
    for n, cell in enumerate(manifest.get("cells") or []):
        if not isinstance(cell, dict):
            problems.append(f"cells[{n}] is not an object")
            continue
        for key in ("index", "kind", "layout", "platform", "seed",
                    "config_sha256", "wall_seconds", "counters"):
            if key not in cell:
                problems.append(f"cells[{n}] missing {key!r}")
        counters = cell.get("counters")
        if isinstance(counters, dict):
            for cname, value in counters.items():
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"cells[{n}] counter {cname!r} is not numeric")
    for name, entry in (manifest.get("phases") or {}).items():
        if not isinstance(entry, dict) or "count" not in entry \
                or "total_seconds" not in entry:
            problems.append(f"phase {name!r} missing count/total_seconds")
    for section in ("resilience", "sanitize", "serve"):
        entries = manifest.get(section)
        if entries is None:
            continue
        if not isinstance(entries, dict):
            problems.append(
                f"{section!r} is {type(entries).__name__}, not an object")
            continue
        for rname, value in entries.items():
            if not isinstance(value, (int, float)):
                problems.append(
                    f"{section} counter {rname!r} is not numeric")
    _fail(problems, "manifest")
    return manifest


def _validate_span(rec: Dict[str, Any], lineno: int, problems: list) -> None:
    for key, kind in (("name", str), ("id", int), ("depth", int),
                      ("t0", (int, float)), ("t1", (int, float)),
                      ("dur", (int, float)), ("attrs", dict),
                      ("counters", dict)):
        if key not in rec:
            problems.append(f"line {lineno}: missing {key!r}")
        elif not isinstance(rec[key], kind):
            problems.append(f"line {lineno}: {key!r} is "
                            f"{type(rec[key]).__name__}")
    if "parent" not in rec:
        problems.append(f"line {lineno}: missing 'parent'")
    elif rec["parent"] is not None and not isinstance(rec["parent"], int):
        problems.append(f"line {lineno}: 'parent' is neither null nor int")
    if isinstance(rec.get("dur"), (int, float)):
        if rec["dur"] < 0:
            problems.append(f"line {lineno}: negative duration")
        t0, t1 = rec.get("t0"), rec.get("t1")
        if isinstance(t0, (int, float)) and isinstance(t1, (int, float)) \
                and abs((t1 - t0) - rec["dur"]) > 1e-9:
            problems.append(f"line {lineno}: dur != t1 - t0")
    for cname, value in (rec.get("counters") or {}).items():
        if not isinstance(value, (int, float)):
            problems.append(f"line {lineno}: counter {cname!r} not numeric")


def validate_trace_file(path: str) -> int:
    """Validate a JSON-lines trace file; returns the span-record count.

    Checks the meta header, per-record structure, id uniqueness and
    parent resolution.  Raises ValueError with every problem found.
    """
    problems: list = []
    ids = set()
    parents = []
    n_spans = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: not JSON ({exc})")
                continue
            if lineno == 1:
                if rec.get("type") != "meta":
                    problems.append("line 1: missing meta header")
                elif rec.get("schema_version") != TRACE_SCHEMA_VERSION:
                    problems.append(
                        f"line 1: schema_version {rec.get('schema_version')} "
                        f"!= {TRACE_SCHEMA_VERSION}")
                if rec.get("type") == "meta":
                    continue
            if rec.get("type") != "span":
                problems.append(f"line {lineno}: unknown type {rec.get('type')!r}")
                continue
            n_spans += 1
            _validate_span(rec, lineno, problems)
            if isinstance(rec.get("id"), int):
                if rec["id"] in ids:
                    problems.append(f"line {lineno}: duplicate id {rec['id']}")
                ids.add(rec["id"])
            if rec.get("parent") is not None:
                parents.append((lineno, rec["parent"]))
    for lineno, parent in parents:
        if parent not in ids:
            problems.append(f"line {lineno}: parent {parent} not in file")
    if n_spans == 0:
        problems.append("no span records")
    _fail(problems, f"trace file {path}")
    return n_spans


#: seconds of float rounding allowed between summed phases and wall time
ROUNDING = 1e-9


def cross_check(trace_path: str, manifest: Dict[str, Any]) -> List[str]:
    """Trace/manifest consistency problems (empty list = clean).

    Manifest cells derive 1:1 (in file order) from the trace's ``cell``
    spans, so the two are paired positionally — which stays correct
    when a resumed run re-executes a cell and the merged trace carries
    two spans with the same cell index.  A cell's phases, its child
    spans by parent id, must tile it with exactly equal boundaries
    (see :func:`repro.instrument.trace.tiled`) and sum to its
    ``wall_seconds``.  The ``serve`` section must equal the one
    re-derived from the trace.
    """
    with open(trace_path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    spans = [r for r in records if r.get("type") == "span"]
    cell_spans = [r for r in spans if r["name"] == "cell"]
    phases: Dict[Optional[int], list] = {}
    for r in sorted(spans, key=lambda r: (r["t0"], r["t1"])):
        phases.setdefault(r.get("parent"), []).append(r)
    problems = []
    if len(cell_spans) != len(manifest["cells"]):
        problems.append(
            f"{len(cell_spans)} cell spans vs "
            f"{len(manifest['cells'])} manifest cells")
    for span, cell in zip(cell_spans, manifest["cells"]):
        idx = cell["index"]
        if span["attrs"].get("cell") != idx:
            problems.append(
                f"manifest cell {idx} pairs with a span tagged "
                f"cell={span['attrs'].get('cell')}")
            continue
        edge = span["t0"]
        for phase in phases.get(span["id"], []):
            if phase["t0"] != edge:
                problems.append(f"cell {idx}: {phase['name']} starts at "
                                f"{phase['t0']!r}, not at {edge!r}")
            edge = phase["t1"]
        if edge != span["t1"]:
            problems.append(f"cell {idx}: phases end at {edge!r}, "
                            f"the cell at {span['t1']!r}")
        phase_sum = sum(p["dur"] for p in phases.get(span["id"], []))
        if abs(phase_sum - cell["wall_seconds"]) > ROUNDING:
            problems.append(f"cell {idx}: phase sum {phase_sum!r}s vs "
                            f"wall {cell['wall_seconds']!r}s")
    # the serve section (reliability/cluster/scrub tallies) must equal
    # what the trace itself adds up to — same derivation, two sources
    meta = next((r for r in records if r.get("type") == "meta"), {})
    derived = serve_entries_from_records(spans, meta.get("counters"))
    recorded = manifest.get("serve") or {}
    for key in sorted(set(derived) | set(recorded)):
        if derived.get(key) != recorded.get(key):
            problems.append(
                f"serve entry {key!r}: trace derives "
                f"{derived.get(key)!r}, manifest records "
                f"{recorded.get(key)!r}")
    return problems
