"""Image-tile decomposition for the volume renderer (Section III-B).

The output image is split into square tiles (32×32 in the paper, the
size that performed consistently well in Bethel & Howison 2012) and a
worker pool of threads grabs tiles dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

__all__ = ["Tile", "enumerate_tiles", "tile_pixels"]


@dataclass(frozen=True)
class Tile:
    """A rectangle of output pixels: origin ``(x0, y0)``, size ``(w, h)``."""

    x0: int
    y0: int
    w: int
    h: int

    @property
    def n_pixels(self) -> int:
        """Pixels covered by the tile."""
        return self.w * self.h

    def n_rays(self, step: int = 1) -> int:
        """Rays :func:`tile_pixels` casts at ray stride ``step``."""
        return -(-self.w // step) * -(-self.h // step)


def enumerate_tiles(width: int, height: int, tile: int = 32) -> List[Tile]:
    """All tiles of an image, row-major, with clipped edge tiles."""
    if width <= 0 or height <= 0:
        raise ValueError(f"image size must be positive, got {width}x{height}")
    if tile <= 0:
        raise ValueError(f"tile size must be positive, got {tile}")
    tiles = []
    for y0 in range(0, height, tile):
        for x0 in range(0, width, tile):
            tiles.append(
                Tile(x0=x0, y0=y0, w=min(tile, width - x0), h=min(tile, height - y0))
            )
    return tiles


def tile_pixels(t: Tile, step: int = 1) -> tuple:
    """(px, py) pixel-coordinate arrays of a tile in row-major scan order.

    ``step`` subsamples pixels in both directions (used by the harness's
    ray-sampling mode; counts are extrapolated by ``step**2``).
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    xs = np.arange(t.x0, t.x0 + t.w, step, dtype=np.int64)
    ys = np.arange(t.y0, t.y0 + t.h, step, dtype=np.int64)
    py, px = np.meshgrid(ys, xs, indexing="ij")
    return px.ravel(), py.ravel()
