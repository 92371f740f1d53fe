"""Generic cell sweeps: grid a cell's parameters, collect rows, export CSV.

Take any :class:`BilateralCell` or :class:`VolrendCell`, name the fields
to vary, and get back flat result rows (optionally as layout-comparison
rows carrying the paper's d_s) — ready for CSV export and whatever
plotting tool sits downstream.  Every layout comparison, here and in the
figure drivers, runs through :func:`run_layout_pairs`; the paper's d_s
matrices are :func:`ds_figure` over the figure's rows.

Long sweeps are where resilience matters most, so :func:`sweep_cells`
forwards the checkpoint/retry/timeout knobs of
:func:`~repro.experiments.parallel.run_cells_parallel` and can keep
partial rows (``on_error="keep"``) instead of raising; CSV export is
atomic (temp file + ``os.replace``) so an interrupted export never
leaves a truncated file behind.  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import csv
import io
import itertools
import traceback
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..instrument.metrics import scaled_relative_difference
from ..memsim.hierarchy import PlatformSpec
from ..memsim.stackdist import HistogramStore, fully_associative_spec, prices_by_histogram
from ..resilience import artifacts as _artifacts
from ..resilience.checkpoint import CheckpointStore
from ..resilience.policy import RetryPolicy
from .config import BilateralCell, VolrendCell
from .harness import Cell, CellResult, prepare_cell, run_cell
from .parallel import CellFailure, CellRunError, run_cells_parallel
from .report import DsFigure

__all__ = ["capacity_sweep", "sweep_cells", "compare_layouts", "ds_figure",
           "rows_to_csv", "run_layout_pairs"]


def _check_cell(cell: Cell) -> None:
    if not isinstance(cell, (BilateralCell, VolrendCell)):
        raise TypeError(f"unsupported cell type {type(cell).__name__}")


def _grid(axes: Dict[str, Sequence]) -> List[Dict[str, object]]:
    if not axes:
        return [{}]
    names = list(axes)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(axes[n] for n in names))]


def _capacity_only_platforms(platforms: Sequence[object]) -> bool:
    """True when the platform axis varies only cache capacity.

    Every platform must be priced by histogram (a single fully-
    associative LRU level, no prefetcher/TLB), so that one histogram
    prices them all — hierarchies are priced one geometry at a time
    and keep the worker pool — and they must agree on the
    core/socket/SMT/line geometry — the parts of a spec that trace
    preparation depends on — so that one prepared trace is valid for
    all of them.
    """
    if len(platforms) < 2:
        return False
    if not all(isinstance(p, PlatformSpec) for p in platforms):
        return False
    if not all(prices_by_histogram(p) for p in platforms):
        return False
    first = platforms[0]
    return all(
        p.n_cores == first.n_cores
        and p.n_sockets == first.n_sockets
        and p.smt == first.smt
        and p.line_bytes == first.line_bytes
        for p in platforms[1:]
    )


def _use_capacity_fast_path(base: Cell, axes: Dict[str, Sequence], *,
                            timeout, retry, checkpoint, resume) -> bool:
    """Whether this sweep qualifies for single-pass stack pricing.

    The fast path runs serially in-process, so the resilience knobs
    (checkpoint/resume/retry/timeout) force the general path; a
    ``backend`` axis or ``backend="scalar"`` on the base cell means the
    user wants the replayer.
    """
    if timeout is not None or retry is not None \
            or checkpoint is not None or resume:
        return False
    if "platform" not in axes or "backend" in axes:
        return False
    if base.backend != "auto":
        return False
    return _capacity_only_platforms(list(axes["platform"]))


def _run_capacity_sweep(cells: List[Cell],
                        points: List[Dict[str, object]]
                        ) -> List[Optional[CellResult]]:
    """Drop-in for :func:`run_cells_parallel` on capacity-only sweeps.

    Groups the cells by their non-platform parameters, prepares each
    group's traces once, and prices every platform in the group from
    shared stack-distance histograms — the trace is generated once and
    analyzed once per distinct stream, no matter how many capacities
    the sweep covers.  Results are in input order; failures surface as
    the same :class:`CellRunError` the general path raises.
    """
    store = HistogramStore()
    results: List[Optional[CellResult]] = [None] * len(cells)
    failures: List[CellFailure] = []
    prepared: Dict[tuple, object] = {}
    for i, (cell, point) in enumerate(zip(cells, points)):
        group = tuple(sorted((k, repr(v)) for k, v in point.items()
                             if k != "platform"))
        try:
            if group not in prepared:
                try:
                    prepared[group] = prepare_cell(cell)
                except Exception as exc:
                    prepared[group] = exc
                    raise
            prep = prepared[group]
            if isinstance(prep, Exception):
                raise prep
            results[i] = run_cell(cell, prep, histogram_store=store)
        except Exception as exc:
            failures.append(CellFailure(
                index=i, cell=cell,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc()))
    if failures:
        raise CellRunError(failures, results)
    return results


def sweep_cells(base: Cell, axes: Dict[str, Sequence],
                counters: Optional[Sequence[str]] = None,
                workers: Optional[int] = 1,
                *,
                on_error: str = "raise",
                timeout: Optional[float] = None,
                retry: Optional[RetryPolicy] = None,
                checkpoint: Union[CheckpointStore, str, None] = None,
                resume: bool = False) -> List[Dict[str, object]]:
    """Run the cell at every combination of ``axes`` values.

    Returns one flat dict per combination: the axis values,
    ``runtime_seconds``, and the requested ``counters`` (all platform
    counters when None).  ``workers`` fans the combinations across
    processes (see :func:`~repro.experiments.parallel.run_cells_parallel`);
    rows are identical for any worker count.

    ``on_error`` selects the failure contract: ``"raise"`` (default)
    raises :class:`CellRunError` after the batch completes, while
    ``"keep"`` returns every row — failed combinations carry an
    ``error`` column and ``None`` measurements, so an overnight sweep
    yields its completed cells either way.  ``timeout``, ``retry``,
    ``checkpoint`` and ``resume`` forward to
    :func:`run_cells_parallel` unchanged.

    When a ``platform`` axis varies only cache capacity (every platform
    a single-level fully-associative LRU with identical core/line
    geometry) and no resilience knob is set, the sweep prices in
    process: each parameter point's trace is generated once and all
    capacities are priced from one stack-distance histogram.
    Counters are bit-for-bit those of the replayer; runtimes agree to
    float rounding (same cost model, one summation order instead of
    per-quantum).  See docs/SIMULATOR.md.
    """
    if on_error not in ("raise", "keep"):
        raise ValueError(f"on_error must be 'raise' or 'keep', "
                         f"got {on_error!r}")
    _check_cell(base)
    points = _grid(axes)
    cells = [replace(base, **point) for point in points]
    errors: Dict[int, str] = {}
    fast = _use_capacity_fast_path(base, axes, timeout=timeout, retry=retry,
                                   checkpoint=checkpoint, resume=resume)
    try:
        if fast:
            results = _run_capacity_sweep(cells, points)
        else:
            results = run_cells_parallel(cells, workers=workers,
                                         timeout=timeout, retry=retry,
                                         checkpoint=checkpoint, resume=resume)
    except CellRunError as exc:
        if on_error == "raise":
            raise
        results = exc.results
        errors = {f.index: f.error for f in exc.failures}
    rows = []
    for i, (point, cell, result) in enumerate(zip(points, cells, results)):
        row: Dict[str, object] = dict(point)
        row["layout"] = cell.layout
        if result is None:
            row["runtime_seconds"] = None
            row["error"] = errors.get(i, "unknown failure")
            rows.append(row)
            continue
        row["runtime_seconds"] = result.runtime_seconds
        names = counters if counters is not None else sorted(result.counters)
        for name in names:
            row[name] = result.counters[name]
        if errors:
            row["error"] = None
        rows.append(row)
    return rows


def capacity_sweep(base: Cell, capacities: Sequence[int],
                   counters: Optional[Sequence[str]] = None,
                   *,
                   line_bytes: Optional[int] = None,
                   axes: Optional[Dict[str, Sequence]] = None,
                   on_error: str = "raise") -> List[Dict[str, object]]:
    """Miss-ratio-curve driver: one trace, priced at every capacity.

    Builds a fully-associative LRU platform per entry of ``capacities``
    (in cache lines), matching ``base``'s core/socket/SMT/line geometry,
    and sweeps them through :func:`sweep_cells` — which recognizes the
    capacity-only axis and prices every geometry from a single
    stack-distance pass over each trace.  Rows carry a ``capacity_lines``
    column instead of the raw platform object.  Extra ``axes`` (layouts,
    stencils, …) combine with the capacity axis as usual; each extra
    point costs one trace generation, never one per capacity.
    """
    caps = [int(c) for c in capacities]
    if not caps:
        raise ValueError("no capacities to sweep")
    ref = base.platform
    lb = line_bytes if line_bytes is not None else ref.line_bytes
    platforms = [
        fully_associative_spec(
            c, line_bytes=lb, n_cores=ref.n_cores, n_sockets=ref.n_sockets,
            smt=ref.smt, freq_ghz=ref.freq_ghz,
            mem_latency_cycles=ref.mem_latency_cycles,
            mem_parallelism=ref.mem_parallelism)
        for c in caps
    ]
    all_axes: Dict[str, Sequence] = dict(axes or {})
    all_axes["platform"] = platforms
    rows = sweep_cells(base, all_axes, counters=counters, on_error=on_error)
    by_name = {p.name: c for p, c in zip(platforms, caps)}
    for row in rows:
        row["capacity_lines"] = by_name[row.pop("platform").name]
    return rows


def run_layout_pairs(cells: Sequence[Cell],
                     layouts: Tuple[str, str] = ("array", "morton"),
                     **run) -> List[Tuple[CellResult, CellResult]]:
    """Run every cell under both ``layouts``: one ``(a, z)`` pair per cell.

    ``layouts`` is the (a, z) pair of Eq. 4.  The cells run as one
    :func:`~repro.experiments.parallel.run_cells_parallel` batch,
    cell-major and layout-minor, so each cell's layout twin follows it
    (the harness re-addresses the first one's traversal) and checkpoint
    keys and trace ``cell`` indices follow the cells' order.  ``run``
    (``workers``, ``timeout``, ``retry``, ``checkpoint``, ``resume``,
    ``govern``) forwards to ``run_cells_parallel`` unchanged.
    """
    batch = [cell.with_layout(name) for cell in cells for name in layouts]
    results = run_cells_parallel(batch, **run)
    return list(zip(results[0::2], results[1::2]))


def ds_figure(base: Cell, rows: Sequence[Tuple[str, Dict[str, object]]],
              concurrencies: Sequence[int], counter_name: str, title: str,
              **run) -> DsFigure:
    """Eq. 4's d_s matrices over ``rows`` × ``concurrencies``.

    Each row is a ``(label, fields)`` pair: its cell at concurrency ``n``
    is ``base`` with ``fields`` and ``n_threads=n``.  ``run`` forwards to
    :func:`run_layout_pairs` (``layouts``, ``workers`` and the
    resilience options); the figure is identical for any worker count.
    """
    cells = [replace(base, n_threads=n, **fields)
             for _, fields in rows for n in concurrencies]
    labels = [label for label, _ in rows]
    runtime_ds = np.zeros((len(rows), len(concurrencies)))
    counter_ds = np.zeros_like(runtime_ds)
    raw = {}
    for i, (res_a, res_z) in enumerate(run_layout_pairs(cells, **run)):
        r, c = divmod(i, len(concurrencies))
        runtime_ds[r, c] = scaled_relative_difference(
            res_a.runtime_seconds, res_z.runtime_seconds)
        counter_ds[r, c] = scaled_relative_difference(
            res_a.counters[counter_name], res_z.counters[counter_name])
        raw[(labels[r], concurrencies[c])] = {"a": res_a, "z": res_z}
    return DsFigure(title=title, counter_name=counter_name,
                    row_labels=labels, col_labels=list(concurrencies),
                    runtime_ds=runtime_ds, counter_ds=counter_ds, raw=raw)


def compare_layouts(base: Cell, axes: Dict[str, Sequence],
                    layouts: Tuple[str, str] = ("array", "morton"),
                    counters: Optional[Sequence[str]] = None,
                    **run) -> List[Dict[str, object]]:
    """Layout-pair sweep: each row carries both measurements and d_s.

    Column naming: ``runtime_<layout>`` / ``<counter>_<layout>`` for the
    raw values, ``ds_runtime`` / ``ds_<counter>`` for Eq. 4.  ``run``
    (``workers`` and the resilience options) forwards to
    :func:`run_layout_pairs`.
    """
    _check_cell(base)
    if "layout" in axes:
        raise ValueError("compare_layouts runs both layouts itself; "
                         "drop the 'layout' axis")
    a_name, z_name = layouts
    points = _grid(axes)
    pairs = run_layout_pairs([replace(base, **point) for point in points],
                             layouts, **run)
    rows = []
    for point, (res_a, res_z) in zip(points, pairs):
        row: Dict[str, object] = dict(point)
        row[f"runtime_{a_name}"] = res_a.runtime_seconds
        row[f"runtime_{z_name}"] = res_z.runtime_seconds
        row["ds_runtime"] = scaled_relative_difference(
            res_a.runtime_seconds, res_z.runtime_seconds)
        names = counters if counters is not None else sorted(res_a.counters)
        for name in names:
            a_val, z_val = res_a.counters[name], res_z.counters[name]
            row[f"{name}_{a_name}"] = a_val
            row[f"{name}_{z_name}"] = z_val
            row[f"ds_{name}"] = (
                scaled_relative_difference(a_val, z_val) if z_val else None)
        rows.append(row)
    return rows


def rows_to_csv(rows: List[Dict[str, object]], path: str) -> None:
    """Write sweep rows to a CSV file (columns = union of row keys).

    The write goes through the durability layer
    (:func:`repro.resilience.artifacts.write_text_artifact`): atomic
    replace — a sweep killed mid-export leaves either the previous file
    or the complete new one, never a truncated CSV — plus a sidecar
    integrity record so downstream tooling can verify the table.
    """
    if not rows:
        raise ValueError("no rows to write")
    fields: List[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    _artifacts.write_text_artifact(path, buffer.getvalue(), kind="csv")
