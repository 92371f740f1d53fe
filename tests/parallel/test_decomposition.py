"""Tests for pencil and tile decomposition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.parallel import (
    PENCIL_AXES,
    Pencil,
    Tile,
    enumerate_pencils,
    enumerate_tiles,
    pencil_coords,
    tile_pixels,
)


class TestPencils:
    def test_axis_labels(self):
        assert PENCIL_AXES == {"px": 0, "py": 1, "pz": 2}

    @pytest.mark.parametrize("axis,count", [(0, 5 * 6), (1, 4 * 6), (2, 4 * 5)])
    def test_pencil_count(self, axis, count):
        assert len(enumerate_pencils((4, 5, 6), axis)) == count

    def test_pencils_cover_volume_exactly_once(self):
        shape = (4, 5, 6)
        for axis in range(3):
            seen = set()
            for pencil in enumerate_pencils(shape, axis):
                i, j, k = pencil_coords(pencil, shape)
                for pt in zip(i.tolist(), j.tolist(), k.tolist()):
                    assert pt not in seen
                    seen.add(pt)
            assert len(seen) == 4 * 5 * 6

    def test_pencil_coords_run_along_axis(self):
        shape = (4, 5, 6)
        p = Pencil(axis=2, fixed=(1, 3))  # i=1, j=3
        i, j, k = pencil_coords(p, shape)
        assert np.array_equal(k, np.arange(6))
        assert np.all(i == 1)
        assert np.all(j == 3)

    def test_enumeration_scan_order(self):
        # fixed axes scan with the lower axis fastest
        pencils = enumerate_pencils((2, 3, 2), 2)
        assert pencils[0].fixed == (0, 0)
        assert pencils[1].fixed == (1, 0)
        assert pencils[2].fixed == (0, 1)

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            enumerate_pencils((4, 4, 4), 3)
        with pytest.raises(ValueError):
            Pencil(axis=5, fixed=(0, 0))


class TestTiles:
    def test_exact_tiling(self):
        tiles = enumerate_tiles(64, 64, 32)
        assert len(tiles) == 4
        assert all(t.w == t.h == 32 for t in tiles)

    def test_clipped_edge_tiles(self):
        tiles = enumerate_tiles(70, 40, 32)
        assert len(tiles) == 3 * 2
        right = [t for t in tiles if t.x0 == 64]
        assert all(t.w == 6 for t in right)
        bottom = [t for t in tiles if t.y0 == 32]
        assert all(t.h == 8 for t in bottom)

    @given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 40))
    def test_tiles_cover_every_pixel_once(self, w, h, tile):
        tiles = enumerate_tiles(w, h, tile)
        assert sum(t.n_pixels for t in tiles) == w * h
        seen = np.zeros((h, w), dtype=int)
        for t in tiles:
            seen[t.y0:t.y0 + t.h, t.x0:t.x0 + t.w] += 1
        assert np.all(seen == 1)

    def test_tile_pixels_scan_order(self):
        px, py = tile_pixels(Tile(2, 3, 2, 2))
        assert list(px) == [2, 3, 2, 3]
        assert list(py) == [3, 3, 4, 4]

    def test_tile_pixels_step(self):
        px, py = tile_pixels(Tile(0, 0, 4, 4), step=2)
        assert list(px) == [0, 2, 0, 2]
        assert list(py) == [0, 0, 2, 2]

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 5))
    def test_n_rays_counts_tile_pixels(self, w, h, step):
        tile = Tile(3, 5, w, h)
        assert tile.n_rays(step) == tile_pixels(tile, step=step)[0].size
        assert tile.n_rays() == tile.n_pixels

    def test_validation(self):
        with pytest.raises(ValueError):
            enumerate_tiles(0, 4)
        with pytest.raises(ValueError):
            enumerate_tiles(4, 4, 0)
        with pytest.raises(ValueError):
            tile_pixels(Tile(0, 0, 4, 4), step=0)
