"""One traversal, every layout: kernel traces re-addressed from a twin.

A kernel's trace is a traversal (which voxel each load reads) addressed
through the grid's layout.  The traversal of one layout's cell, handed
to a renderer or filter on another layout, must give exactly the trace
that layout builds on its own: same lines, collapsed hits, op counts,
samples and pixels.  The harness keeps the last cell's traversals for
a cell that differs only in its layout; the tests at the end check
that it reuses them for that twin only, drops them with
:func:`clear_caches`, and leaves results and spans unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from repro.core import Grid, make_layout
from repro.data import mri_phantom
from repro.experiments import (
    BilateralCell,
    VolrendCell,
    clear_caches,
    default_ivybridge,
    run_cell,
)
from repro.instrument import trace
from repro.kernels import (
    BilateralFilter3D,
    BilateralSpec,
    MinMaxBricks,
    RaycastRenderer,
    RenderSpec,
    orbit_camera,
    sparse_ramp,
)
from repro.memsim import AddressSpace
from repro.parallel import Pencil, Tile

SHAPE = (12, 10, 9)
LAYOUTS = ("array", "morton", "hilbert", "tiled")
TILES = (Tile(6, 6, 8, 8), Tile(0, 0, 8, 8), Tile(16, 4, 8, 5))


def _grid(layout):
    dense = mri_phantom(SHAPE, noise=0.05, seed=3)
    return Grid.from_dense(dense, make_layout(layout, SHAPE))


def _same_chunk(a, b):
    assert np.array_equal(a.lines, b.lines)
    assert (a.collapsed_hits, a.n_ops) == (b.collapsed_hits, b.n_ops)


class TestBilateral:
    @pytest.mark.parametrize("radius,order",
                             [(1, "xyz"), (2, "zyx"), (3, "xyz")])
    @pytest.mark.parametrize("writes", [False, True])
    def test_reads_readdressed_equal_own_trace(self, radius, order, writes):
        filt = BilateralFilter3D(BilateralSpec(radius=radius,
                                               stencil_order=order))
        pencils = [Pencil(0, (0, 0)), Pencil(1, (5, 4)), Pencil(2, (11, 9))]
        reads = {p: filt.pencil_reads(SHAPE, p) for p in pencils}
        for layout in LAYOUTS:
            grid = _grid(layout)
            out = Grid(make_layout(layout, SHAPE)) if writes else None
            own_space, shared_space = AddressSpace(64), AddressSpace(64)
            for p in pencils:
                own = filt.pencil_trace(grid, p, own_space, out_grid=out)
                shared, kept = filt.pencil_trace_shared(
                    grid, p, shared_space, out, reads[p])
                assert kept is reads[p]
                _same_chunk(shared, own)


class TestVolrend:
    @pytest.mark.parametrize(
        "sampler,skip,early,projection",
        list(itertools.product(("nearest", "trilinear"), (False, True),
                               (False, True),
                               ("perspective", "orthographic"))))
    def test_reads_readdressed_equal_own_trace(self, sampler, skip, early,
                                               projection):
        spec = RenderSpec(sampler=sampler,
                          early_termination=0.9 if early else None)
        camera = orbit_camera(SHAPE, 2, n_viewpoints=8, width=24, height=24,
                              projection=projection)

        def renderer(layout):
            grid = _grid(layout)
            bricks = MinMaxBricks(grid, brick=4) if skip else None
            return RaycastRenderer(grid, sparse_ramp(), spec, skip=bricks)

        first = renderer("array")
        for ray_step, want_values in [(1, True), (2, False)]:
            space = AddressSpace(64)
            reads = [first.render_tile_shared(camera, t, space, want_values,
                                              ray_step)[1] for t in TILES]
            for layout in LAYOUTS[1:]:
                twin = renderer(layout)
                own_space, shared_space = AddressSpace(64), AddressSpace(64)
                for tile, kept in zip(TILES, reads):
                    own = twin.render_tile(camera, tile, own_space,
                                           want_values, ray_step)
                    shared, back = twin.render_tile_shared(
                        camera, tile, shared_space, want_values, ray_step,
                        reads=kept)
                    assert back is kept
                    _same_chunk(shared.trace, own.trace)
                    assert shared.n_samples == own.n_samples
                    if want_values:
                        assert np.array_equal(shared.rgba, own.rgba)
                    else:
                        assert shared.rgba is own.rgba is None

    def test_traversal_ignores_the_layout(self):
        camera = orbit_camera(SHAPE, 5, n_viewpoints=8, width=24, height=24)
        px, py = np.meshgrid(np.arange(24), np.arange(24))
        ref = RaycastRenderer(_grid("array"), sparse_ramp()).traverse(
            camera, px.ravel(), py.ravel(), want_values=True)
        for layout in LAYOUTS[1:]:
            got = RaycastRenderer(_grid(layout), sparse_ramp()).traverse(
                camera, px.ravel(), py.ravel(), want_values=True)
            assert np.array_equal(got.voxels, ref.voxels)
            assert np.array_equal(got.rgba, ref.rgba)
            assert got.n_samples == ref.n_samples


# -- the harness memo ---------------------------------------------------------

IVB = default_ivybridge(64)
BILATERAL = BilateralCell(platform=IVB, shape=(16, 16, 16), n_threads=4,
                          stencil="r1", pencil="pz", stencil_order="zyx",
                          pencils_per_thread=2)
VOLREND = VolrendCell(platform=IVB, shape=(16, 16, 16), n_threads=4,
                      image_size=64, tile_size=16, tiles_per_thread=1)


def _count_traversals(monkeypatch):
    calls = []
    for owner, name in [(BilateralFilter3D, "pencil_reads"),
                        (RaycastRenderer, "traverse")]:
        original = getattr(owner, name)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture
def fresh():
    clear_caches()
    yield
    clear_caches()


@pytest.mark.parametrize("cell", [BILATERAL, VOLREND],
                         ids=["bilateral", "volrend"])
class TestHarnessMemo:
    def test_twin_reuses_and_matches_a_fresh_run(self, cell, fresh,
                                                 monkeypatch):
        twin = replace(cell, layout="morton")
        alone = run_cell(twin)
        clear_caches()
        calls = _count_traversals(monkeypatch)
        run_cell(cell)
        traversed = len(calls)
        assert traversed > 0
        assert run_cell(twin) == alone
        assert len(calls) == traversed

    def test_any_other_field_traces_again(self, cell, fresh, monkeypatch):
        # same work items, another traversal of them
        other = (replace(cell, stencil="r3", layout="morton")
                 if isinstance(cell, BilateralCell)
                 else replace(cell, viewpoint=3, layout="morton"))
        alone = run_cell(other)
        clear_caches()
        run_cell(cell)
        calls = _count_traversals(monkeypatch)
        assert run_cell(other) == alone
        assert calls

    def test_clear_caches_drops_the_traversals(self, cell, fresh,
                                               monkeypatch):
        run_cell(cell)
        clear_caches()
        calls = _count_traversals(monkeypatch)
        run_cell(replace(cell, layout="morton"))
        assert calls

    def test_twin_opens_the_same_kernel_spans(self, cell, fresh):
        twin = replace(cell, layout="morton")

        def kernel_spans():
            tracer = trace.Tracer()
            previous = trace.activate(tracer)
            try:
                run_cell(twin)
            finally:
                trace.activate(previous)
            return [(r["name"], r["attrs"], r["counters"])
                    for r in tracer.records
                    if r["name"] in ("bilateral.pencil", "volrend.tile")]

        alone = kernel_spans()
        clear_caches()
        run_cell(cell)
        assert alone and kernel_spans() == alone
