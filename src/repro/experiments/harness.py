"""Cell runners: execute one measurement cell end to end.

A cell run is: build (or fetch cached) dataset and grid → decompose the
work and assign it to threads the way the paper's code does → render the
sampled work items to access streams → simulate on the platform's cache
hierarchy → extrapolate the sampled counters/runtime to the full
workload.  :func:`run_cell` runs every cell, of either kind, and
returns a :class:`CellResult` carrying the simulated runtime and the
platform counters, which the figure drivers pair up into the paper's
d_s tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

import numpy as np

from ..core.grid import Grid
from ..core.registry import make_layout
from ..instrument import trace as _trace
from ..instrument.manifest import config_hash
from ..data.synthetic import combustion_field, linear_ramp, mri_phantom
from ..kernels.bilateral import STENCIL_LABELS, BilateralFilter3D, BilateralSpec
from ..kernels.acceleration import MinMaxBricks
from ..kernels.camera import orbit_camera
from ..kernels.transfer import grayscale_ramp, sparse_ramp, warm_ramp
from ..kernels.volrend import RaycastRenderer, RenderSpec
from ..memsim.address import AddressSpace
from ..memsim.cost import CostModel
from ..memsim.engine import SimResult, SimulationEngine, ThreadWork
from ..memsim.hierarchy import PlatformSpec
from ..memsim.stackdist import HistogramStore
from ..parallel.affinity import make_affinity
from ..parallel.pencil import PENCIL_AXES, round_robin_pencils
from ..parallel.scheduler import dynamic_worker_pool
from ..parallel.threads import build_thread_works
from ..parallel.tiles import enumerate_tiles
from .config import BilateralCell, VolrendCell

__all__ = [
    "CellResult",
    "PreparedCell",
    "prepare_cell",
    "run_cell",
    "run_bilateral_cell",
    "run_volrend_cell",
    "simulate_prepared",
    "clear_caches",
]

Cell = Union[BilateralCell, VolrendCell]

#: transfer-function presets selectable from VolrendCell.transfer
_TRANSFERS = {
    "warm": warm_ramp,
    "grayscale": grayscale_ramp,
    "sparse": sparse_ramp,
}

# Dataset/grid caches: figure sweeps reuse the same volume dozens of
# times; regenerating the phantom or re-packing a Morton grid per cell
# would dominate the harness.
_DENSE_CACHE: Dict[tuple, np.ndarray] = {}
_GRID_CACHE: Dict[tuple, Grid] = {}
_MINMAX_CACHE: Dict[tuple, MinMaxBricks] = {}


class _Traversals:
    """The last cell's traversal of each work item, for its layout twin.

    A figure pairs every cell with one that differs only in ``layout``,
    and no traversal depends on the layout, so the second cell of a
    pair only re-addresses the first one's traversals.  The key is the
    cell with its layout set aside — every other field, compared
    exactly; a cell with another key replaces the memo, so it holds one
    cell's traversals and never outlives a pair.
    """

    def __init__(self):
        self.key = None
        self.items: dict = {}

    def for_cell(self, cell) -> dict:
        """``cell``'s work item → traversal map (empty on a new key)."""
        key = replace(cell, layout="")
        if key != self.key:
            self.key, self.items = key, {}
        return self.items

    def clear(self) -> None:
        self.key, self.items = None, {}


_TRAVERSALS = _Traversals()


def clear_caches() -> None:
    """Drop cached datasets, grids, skip structures and traversals."""
    _DENSE_CACHE.clear()
    _GRID_CACHE.clear()
    _MINMAX_CACHE.clear()
    _TRAVERSALS.clear()


def _dense_for(dataset: str, shape: tuple, seed: int) -> np.ndarray:
    key = (dataset, shape, seed)
    if key not in _DENSE_CACHE:
        if dataset == "mri":
            _DENSE_CACHE[key] = mri_phantom(shape, noise=0.05, seed=seed)
        elif dataset == "combustion":
            _DENSE_CACHE[key] = combustion_field(shape, seed=seed)
        elif dataset == "ramp":
            _DENSE_CACHE[key] = linear_ramp(shape, axis=0)
        else:
            raise ValueError(f"unknown dataset {dataset!r}")
    return _DENSE_CACHE[key]


def _grid_for(dataset: str, shape: tuple, seed: int, layout_name: str) -> Grid:
    key = (dataset, shape, seed, layout_name)
    if key not in _GRID_CACHE:
        dense = _dense_for(dataset, shape, seed)
        _GRID_CACHE[key] = Grid.from_dense(dense, make_layout(layout_name, shape))
    return _GRID_CACHE[key]


@dataclass
class CellResult:
    """One cell's measurements.

    Attributes
    ----------
    runtime_seconds : float
        Cost-model runtime, extrapolated to the full workload.
    counters : dict
        Platform counters, extrapolated.
    sim : SimResult
        The raw (pre-extrapolation metadata included) engine result.
    n_threads_simulated : int
        Threads actually driven through the simulator.
    wall_seconds : float
        Host wall-clock time of the cell's run, the duration of its
        ``cell`` span (throughput telemetry; excluded from equality so
        parallel and serial runs of the same cell compare equal).
    """

    runtime_seconds: float
    counters: Dict[str, float]
    sim: SimResult
    n_threads_simulated: int
    wall_seconds: float = field(default=0.0, compare=False)


@dataclass
class PreparedCell:
    """A cell's generated traces, ready to simulate (and re-simulate).

    The expensive half of a cell run — dataset/grid setup and trace
    generation — depends only on the kernel parameters, the layout, and
    the platform's core/thread/line geometry, *not* on its cache sizes.
    Splitting preparation from simulation lets a capacity sweep generate
    each trace once and price every cache geometry from it (see
    :func:`simulate_prepared` and :mod:`repro.memsim.stackdist`).
    """

    works: List[ThreadWork]
    count_scale: float
    work_scale: float
    n_threads_simulated: int


def _select_simulated_threads(n_threads: int, affinity: List[int],
                              sample_cores: Optional[int]) -> List[int]:
    """Thread ids to simulate: all, or those pinned to the first N cores.

    Core sampling is only exact when no cache level spans cores, so
    callers enable it for the MIC (core-private L1+L2) and leave it off
    for Ivy Bridge (socket-shared L3).
    """
    if sample_cores is None:
        return list(range(n_threads))
    chosen = [t for t in range(n_threads) if affinity[t] < sample_cores]
    return chosen or [0]


def _prepare_bilateral(cell: BilateralCell) -> PreparedCell:
    """Setup + trace generation for one Figure-2/3 bilateral cell."""
    shape = tuple(cell.shape)
    with _trace.span("cell.setup"):
        radius = STENCIL_LABELS.get(cell.stencil)
        if radius is None:
            radius = int(cell.stencil)
        grid = _grid_for(cell.dataset, shape, cell.seed, cell.layout)
        spec = cell.platform
        space = AddressSpace(spec.line_bytes)
        filt = BilateralFilter3D(BilateralSpec(
            radius=radius,
            sigma_spatial=cell.sigma_spatial,
            sigma_range=cell.sigma_range,
            stencil_order=cell.stencil_order,
        ))
        axis = PENCIL_AXES[cell.pencil]
        full_items = int(np.prod(shape)) // shape[axis]
        if cell.n_threads > full_items:
            raise ValueError(
                f"{cell.n_threads} threads exceed {full_items} pencils; "
                f"use a larger volume"
            )
        affinity = make_affinity(cell.affinity, cell.n_threads, spec,
                                 usable_cores=cell.usable_cores)
        simulated = _select_simulated_threads(
            cell.n_threads, affinity, cell.sample_cores)
        # the round-robin deal of every pencil, sliced to the simulated
        # threads' first pencils, in closed form
        sampled_assignment = round_robin_pencils(
            shape, axis, cell.n_threads, cell.pencils_per_thread, simulated,
            order=cell.pencil_order)
        sampled_items = sum(len(v) for v in sampled_assignment.values())
        factor = full_items / sampled_items if sampled_items else 1.0
        # per-thread work extrapolation: each thread does items/T,
        # we ran <= S
        thread_factor = (full_items / cell.n_threads) / max(
            1, max((len(v) for v in sampled_assignment.values()),
                   default=1))

    with _trace.span("cell.trace_gen") as sp:
        out_grid = None
        if cell.trace_writes:
            out_grid = Grid(make_layout(cell.layout, shape),
                            dtype=np.float32)
        reads = _TRAVERSALS.for_cell(cell)

        def render(pencil):
            chunk, reads[pencil] = filt.pencil_trace_shared(
                grid, pencil, space, out_grid, reads.get(pencil))
            return chunk

        works = build_thread_works(sampled_assignment, render, affinity)
        sp.add("items", sampled_items)
        sp.add("accesses", sum(w.chunk.n_accesses for w in works))

    return PreparedCell(works=works, count_scale=factor,
                        work_scale=thread_factor,
                        n_threads_simulated=len(sampled_assignment))


def _prepare_volrend(cell: VolrendCell) -> PreparedCell:
    """Setup + trace generation for one Figure-4/5/6 raycasting cell."""
    shape = tuple(cell.shape)
    with _trace.span("cell.setup"):
        grid = _grid_for(cell.dataset, shape, cell.seed, cell.layout)
        spec = cell.platform
        space = AddressSpace(spec.line_bytes)
        camera = orbit_camera(
            shape, cell.viewpoint, n_viewpoints=cell.n_viewpoints,
            width=cell.image_size, height=cell.image_size,
            projection=cell.projection,
        )
        try:
            transfer = _TRANSFERS[cell.transfer]()
        except KeyError:
            raise ValueError(
                f"unknown transfer {cell.transfer!r}; known: "
                f"{sorted(_TRANSFERS)}"
            ) from None
        skip = None
        if cell.skip_brick is not None:
            key = (cell.dataset, shape, cell.seed, cell.layout,
                   cell.skip_brick)
            if key not in _MINMAX_CACHE:
                _MINMAX_CACHE[key] = MinMaxBricks(grid,
                                                  brick=cell.skip_brick)
            skip = _MINMAX_CACHE[key]
        renderer = RaycastRenderer(grid, transfer, RenderSpec(
            step=cell.step, sampler=cell.sampler,
            early_termination=cell.early_termination,
        ), skip=skip)
        tiles = enumerate_tiles(cell.image_size, cell.image_size,
                                cell.tile_size)
        if cell.n_threads > len(tiles):
            raise ValueError(
                f"{cell.n_threads} threads exceed {len(tiles)} tiles; "
                f"use a larger image"
            )
        assignment = dynamic_worker_pool(tiles, cell.n_threads,
                                         cost=lambda t: t.n_pixels)
        affinity = make_affinity(cell.affinity, cell.n_threads, spec,
                                 usable_cores=cell.usable_cores)
        simulated = set(_select_simulated_threads(
            cell.n_threads, affinity, cell.sample_cores))

        full_pixels = sum(t.n_pixels for items in assignment.values()
                          for t in items)
        # sample each thread's most central tiles: edge tiles can miss
        # the volume entirely at this FOV, which would make a 1-tile
        # sample unrepresentative of the thread's typical work
        half = cell.image_size / 2.0

        def _centrality(tile):
            cx = tile.x0 + tile.w / 2.0 - half
            cy = tile.y0 + tile.h / 2.0 - half
            return cx * cx + cy * cy

        sampled_assignment = {
            t: sorted(items, key=_centrality)[:cell.tiles_per_thread]
            for t, items in assignment.items()
            if t in simulated
        }
        # extrapolate by the rays the sampled tiles cast: a clipped edge
        # tile at ray_step > 1 casts more than n_pixels / ray_step**2
        thread_rays = [sum(t.n_rays(cell.ray_step) for t in items)
                       for items in sampled_assignment.values()]
        sampled_rays = sum(thread_rays)
        factor = full_pixels / sampled_rays if sampled_rays else 1.0
        per_thread_full = full_pixels / cell.n_threads
        thread_factor = per_thread_full / max(thread_rays, default=1.0)

    with _trace.span("cell.trace_gen") as sp:
        reads = _TRAVERSALS.for_cell(cell)

        def render(tile):
            result, reads[tile] = renderer.render_tile_shared(
                camera, tile, space,
                want_values=cell.early_termination is not None,
                ray_step=cell.ray_step, reads=reads.get(tile))
            return result.trace

        works = build_thread_works(sampled_assignment, render, affinity)
        sp.add("items", sum(len(v) for v in sampled_assignment.values()))
        sp.add("accesses", sum(w.chunk.n_accesses for w in works))

    return PreparedCell(works=works, count_scale=factor,
                        work_scale=thread_factor,
                        n_threads_simulated=len(sampled_assignment))


#: each cell type's span ``kind`` and its setup + trace generation
_KINDS = {
    BilateralCell: ("bilateral", _prepare_bilateral),
    VolrendCell: ("volrend", _prepare_volrend),
}


def _kind_of(cell: Cell):
    if type(cell) not in _KINDS:
        raise TypeError(f"not an experiment cell: {type(cell).__name__}")
    return _KINDS[type(cell)]


def prepare_cell(cell: Cell) -> PreparedCell:
    """Generate a cell's traces without simulating them.

    The returned :class:`PreparedCell` can be priced against any number
    of platforms via :func:`simulate_prepared` — the capacity-sweep fast
    path in :func:`repro.experiments.sweep.sweep_cells` does exactly
    that, preparing once per parameter point and re-pricing per cache
    geometry.
    """
    return _kind_of(cell)[1](cell)


def run_cell(cell: Cell, prepared: Optional[PreparedCell] = None,
             **simulate) -> CellResult:
    """Run one cell of either kind; the one place a ``cell`` span is
    opened and a cell's wall clock read.

    The span is :func:`~repro.instrument.trace.tiled`: ``cell.setup``,
    ``cell.trace_gen``, ``cell.simulate`` and the remainder
    ``cell.finish`` share their boundaries, so they sum to
    ``wall_seconds``.  ``prepared`` skips preparation and ``simulate``
    forwards to :func:`simulate_prepared`, which is how the capacity
    sweep prices one preparation against many platforms.
    """
    kind, prepare = _kind_of(cell)
    attrs = {}
    if _trace.current() is not None:
        attrs = dict(kind=kind, layout=cell.layout,
                     platform=cell.platform.name, seed=cell.seed,
                     shape=list(cell.shape), threads=cell.n_threads,
                     config=config_hash(cell))
    with _trace.tiled("cell", **attrs) as cell_sp:
        if prepared is None:
            prepared = prepare(cell)
        # the module global, so a wrapper installed on it is called
        result = simulate_prepared(cell, prepared, **simulate)
        cell_sp.add("sim_runtime_seconds", result.runtime_seconds)
    result.wall_seconds = cell_sp.duration
    return result


#: the per-kind names: Figure-2/3 bilateral and Figure-4/5/6 volrend cells
run_bilateral_cell = run_volrend_cell = run_cell


def simulate_prepared(cell: Cell,
                      prepared: PreparedCell,
                      *,
                      platform: Optional[PlatformSpec] = None,
                      backend: Optional[str] = None,
                      histogram_store: Optional[HistogramStore] = None,
                      ) -> CellResult:
    """Simulate already-generated traces and assemble the cell result.

    ``platform``/``backend`` override the cell's own (the capacity
    sweep re-prices one preparation against many cache geometries);
    ``histogram_store`` lets those re-pricings share stack-distance
    histograms so each trace is analyzed once.  The result's
    ``wall_seconds`` is left to :func:`run_cell`, which times the cell.
    """
    spec = platform if platform is not None else cell.platform
    with _trace.span("cell.simulate"):
        engine = SimulationEngine(
            spec, CostModel(cpi_compute=cell.cpi_compute),
            quantum=cell.quantum, seed=cell.seed,
            backend=backend if backend is not None else cell.backend,
            histogram_store=histogram_store)
        sim = engine.run(prepared.works).scaled(
            count_scale=prepared.count_scale,
            work_scale=prepared.work_scale)
    return CellResult(
        runtime_seconds=sim.runtime_seconds,
        counters=sim.counters,
        sim=sim,
        n_threads_simulated=prepared.n_threads_simulated,
    )
