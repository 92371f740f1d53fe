"""Tests for min–max brick empty-space skipping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Grid, make_layout
from repro.data import combustion_field, mri_phantom
from repro.kernels import (
    MinMaxBricks,
    RaycastRenderer,
    RenderSpec,
    TransferFunction,
    grayscale_ramp,
    isosurface_like,
    orbit_camera,
    sparse_ramp,
)
from repro.memsim import AddressSpace
from repro.parallel import Tile


def _grid(dense, layout="array"):
    return Grid.from_dense(dense, make_layout(layout, dense.shape))


def _sparse_volume(shape=(16, 16, 16)):
    """Mostly zero, with a dense blob in one corner."""
    dense = np.zeros(shape, dtype=np.float32)
    dense[2:6, 2:6, 2:6] = 0.9
    return dense


def _classify_per_brick(mm, transfer, footprint=0, samples_per_brick=64,
                        eps=1e-12):
    """The per-brick classification loop: the oracle for ``classify``."""
    lo, hi = mm.mins, mm.maxs
    if footprint:
        from scipy import ndimage

        size = 2 * footprint + 1
        lo = ndimage.minimum_filter(lo, size=size, mode="nearest")
        hi = ndimage.maximum_filter(hi, size=size, mode="nearest")
    control_values = np.array([p[0] for p in transfer.points])
    active = np.zeros(mm.grid_shape, dtype=bool)
    for idx in np.ndindex(mm.grid_shape):
        vmin, vmax = lo[idx], hi[idx]
        probes = np.linspace(vmin, vmax, samples_per_brick)
        inside = control_values[(control_values >= vmin)
                                & (control_values <= vmax)]
        if inside.size:
            probes = np.concatenate([probes, inside])
        if transfer(probes)[:, 3].max() > eps:
            active[idx] = True
    return active


def _blocky_volume(shape=(18, 13, 11)):
    """Flat regions (constant bricks) beside a field, off the brick grid."""
    dense = combustion_field(shape, seed=3).astype(np.float32)
    dense[:9] = 0.0
    dense[:, :4] = 0.45
    return dense


class TestMinMaxBricks:
    def test_bounds_match_brute_force(self, rng):
        dense = rng.random((10, 9, 8)).astype(np.float32)
        assert MinMaxBricks(_grid(dense), brick=4).grid_shape == (3, 3, 2)
        for b in (1, 2, 3, 4, 8, 16):
            mm = MinMaxBricks(_grid(dense), brick=b)
            for bi, bj, bk in np.ndindex(mm.grid_shape):
                sub = dense[bi * b:(bi + 1) * b, bj * b:(bj + 1) * b,
                            bk * b:(bk + 1) * b]
                assert mm.mins[bi, bj, bk] == sub.min()
                assert mm.maxs[bi, bj, bk] == sub.max()

    def test_layout_independent(self):
        dense = combustion_field((8, 8, 8), seed=1)
        a = MinMaxBricks(_grid(dense, "array"), brick=4)
        m = MinMaxBricks(_grid(dense, "morton"), brick=4)
        assert np.array_equal(a.mins, m.mins)
        assert np.array_equal(a.maxs, m.maxs)

    def test_validates_brick(self):
        with pytest.raises(ValueError):
            MinMaxBricks(_grid(np.zeros((4, 4, 4), dtype=np.float32)), brick=0)

    def test_classify_empty_volume_inactive(self):
        mm = MinMaxBricks(_grid(np.zeros((8, 8, 8), dtype=np.float32)), brick=4)
        active = mm.classify(grayscale_ramp())
        assert not active.any()

    def test_classify_sparse_volume(self):
        mm = MinMaxBricks(_grid(_sparse_volume()), brick=4)
        active = mm.classify(grayscale_ramp())
        assert active.any()
        assert not active.all()
        # the blob's bricks are active
        assert active[0, 0, 0] or active[1, 1, 1]

    def test_classify_catches_narrow_isosurface_bump(self):
        """Control-point probing: an opacity bump narrower than the probe
        spacing must still activate bricks spanning it."""
        dense = np.full((8, 8, 8), 0.0, dtype=np.float32)
        dense[4:, :, :] = 1.0  # one brick spans [0, 1]
        mm = MinMaxBricks(_grid(dense), brick=8)
        tf = isosurface_like(0.5, width=1e-6)
        active = mm.classify(tf, samples_per_brick=8)
        assert active.any()

    def test_footprint_dilates(self):
        mm = MinMaxBricks(_grid(_sparse_volume()), brick=4)
        tight = mm.classify(grayscale_ramp(), footprint=0)
        dilated = mm.classify(grayscale_ramp(), footprint=1)
        assert dilated.sum() >= tight.sum()
        assert np.all(dilated[tight])

    @pytest.mark.parametrize("brick", [2, 4, 8])
    @pytest.mark.parametrize("footprint", [0, 1])
    @pytest.mark.parametrize("tf", [grayscale_ramp(), sparse_ramp(),
                                    isosurface_like(0.45, width=1e-6),
                                    isosurface_like(0.7)],
                             ids=["ramp", "sparse", "narrow-iso", "iso"])
    def test_classify_matches_the_per_brick_loop(self, brick, footprint, tf):
        for dense in (_blocky_volume(), _sparse_volume()):
            mm = MinMaxBricks(_grid(dense), brick=brick)
            for samples in (8, 64):
                assert np.array_equal(
                    mm.classify(tf, footprint=footprint,
                                samples_per_brick=samples),
                    _classify_per_brick(mm, tf, footprint=footprint,
                                        samples_per_brick=samples))

    def test_classify_validates_footprint(self):
        mm = MinMaxBricks(_grid(_sparse_volume()), brick=4)
        with pytest.raises(ValueError):
            mm.classify(grayscale_ramp(), footprint=-1)

    def test_active_mask_for_points(self):
        mm = MinMaxBricks(_grid(_sparse_volume()), brick=4)
        active = mm.classify(grayscale_ramp())
        pts = np.array([[3.0, 3.0, 3.0], [14.0, 14.0, 14.0]])
        mask = mm.active_mask_for_points(pts, active)
        assert mask[0]
        assert not mask[1]

    def test_structure_offsets_in_range(self, rng):
        mm = MinMaxBricks(_grid(_sparse_volume()), brick=4)
        pts = rng.random((50, 3)) * 15
        offs = mm.structure_offsets(pts)
        assert offs.min() >= 0
        assert offs.max() < mm.n_bricks


class TestSkippingRenderer:
    @pytest.mark.parametrize("sampler", ["nearest", "trilinear"])
    def test_image_unchanged_by_skipping(self, sampler):
        dense = _sparse_volume()
        grid = _grid(dense)
        cam = orbit_camera(dense.shape, 3, width=16, height=16)
        spec = RenderSpec(step=0.7, sampler=sampler)
        tf = grayscale_ramp()
        plain = RaycastRenderer(grid, tf, spec).render_image(cam)
        skipped = RaycastRenderer(
            grid, tf, spec, skip=MinMaxBricks(grid, brick=4)).render_image(cam)
        assert np.allclose(plain, skipped, atol=1e-9)

    def test_samples_and_trace_shrink(self):
        dense = _sparse_volume()
        grid = _grid(dense)
        cam = orbit_camera(dense.shape, 1, width=16, height=16)
        tile = Tile(0, 0, 16, 16)
        tf = grayscale_ramp()
        plain = RaycastRenderer(grid, tf).render_tile(
            cam, tile, space=AddressSpace(64))
        skipped = RaycastRenderer(
            grid, tf, skip=MinMaxBricks(grid, brick=4)).render_tile(
            cam, tile, space=AddressSpace(64))
        assert skipped.n_samples < plain.n_samples
        # the simulated (post-collapse) access stream shrinks: skipped
        # volume loads far outweigh the added structure lookups, which
        # collapse to ~one access per brick run
        assert skipped.trace.lines.size < plain.trace.lines.size

    def test_structure_registered_at_own_address(self):
        dense = _sparse_volume()
        grid = _grid(dense)
        cam = orbit_camera(dense.shape, 1, width=8, height=8)
        space = AddressSpace(64)
        skip = MinMaxBricks(grid, brick=4)
        RaycastRenderer(grid, grayscale_ramp(), skip=skip).render_tile(
            cam, Tile(0, 0, 8, 8), space=space)
        assert space.base_of(skip) != space.base_of(grid)

    def test_dense_volume_skips_nothing(self):
        dense = np.full((8, 8, 8), 0.8, dtype=np.float32)
        grid = _grid(dense)
        cam = orbit_camera(dense.shape, 0, width=8, height=8)
        tf = grayscale_ramp()
        plain = RaycastRenderer(grid, tf).render_tile(cam, Tile(0, 0, 8, 8))
        skipped = RaycastRenderer(grid, tf, skip=MinMaxBricks(grid, brick=4)
                                  ).render_tile(cam, Tile(0, 0, 8, 8))
        assert skipped.n_samples == plain.n_samples
