"""Volume reconstruction through the layout interface.

Samplers take continuous positions (in voxel coordinates) and return
both reconstructed values and the *element offsets they read*, so the
renderer's value path and stream path stay in lockstep: every simulated
load corresponds to a value actually used.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.grid import Grid

__all__ = ["sample_nearest", "sample_trilinear", "nearest_voxels",
           "trilinear_voxels"]

#: a trilinear sample's 8 cell corners in load order: c000, c100, c010,
#: c110, c001, c101, c011, c111 (x fastest)
_CORNERS = np.array(
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0],
     [0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
    dtype=np.int64,
)


def nearest_voxels(shape, pts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(i, j, k)`` of the voxel nearest each position of ``pts`` (n, 3),
    clamped to ``shape``: the one load of a nearest sample."""
    pts = np.asarray(pts, dtype=np.float64)
    return tuple(np.clip(np.rint(pts[:, c]).astype(np.int64), 0, n - 1)
                 for c, n in enumerate(shape))


def _cell_base(shape, pts: np.ndarray) -> np.ndarray:
    """Each position's cell base, clamped so the +1 corner stays in bounds."""
    base = np.floor(pts).astype(np.int64)
    for c, n in enumerate(shape):
        base[:, c] = np.clip(base[:, c], 0, max(n - 2, 0))
    return base


def _corners(shape, base: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The 8 corners of each cell, flattened sample-major."""
    out = []
    for c, n in enumerate(shape):
        axis = base[:, c:c + 1] + _CORNERS[:, c][None, :]
        if n == 1:
            axis[:] = 0
        out.append(axis.ravel())
    return tuple(out)


def trilinear_voxels(shape, pts: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(i, j, k)`` of the 8 cell corners each position of ``pts`` (n, 3)
    reads, in load order (see :func:`sample_trilinear`)."""
    return _corners(shape, _cell_base(shape, np.asarray(pts,
                                                        dtype=np.float64)))


def sample_nearest(grid: Grid, pts: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbour reconstruction at positions ``pts`` (n, 3).

    Returns ``(values, offsets)`` where ``offsets`` has one element
    offset per sample, in sample order.
    """
    offs = grid.offsets(*nearest_voxels(grid.shape, pts))
    return grid.buffer[offs].astype(np.float64), offs


def sample_trilinear(grid: Grid, pts: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Trilinear reconstruction at positions ``pts`` (n, 3).

    Returns ``(values, offsets)`` where ``offsets`` has shape ``(n * 8,)``:
    the 8 cell-corner reads per sample in c000, c100, c010, c110, c001,
    c101, c011, c111 order (x fastest), flattened sample-major — the
    load order of a straightforward inner loop.
    """
    pts = np.asarray(pts, dtype=np.float64)
    base = _cell_base(grid.shape, pts)
    frac = np.clip(pts - base, 0.0, 1.0)
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]

    n = pts.shape[0]
    offs = grid.offsets(*_corners(grid.shape, base))
    vals = grid.buffer[offs].reshape(n, 8).astype(np.float64)

    wx = np.stack([1 - fx, fx], axis=1)
    wy = np.stack([1 - fy, fy], axis=1)
    wz = np.stack([1 - fz, fz], axis=1)
    # weight for corner (a, b, c) is wx[a] * wy[b] * wz[c]
    w = (
        wx[:, _CORNERS[:, 0]]
        * wy[:, _CORNERS[:, 1]]
        * wz[:, _CORNERS[:, 2]]
    )
    return (vals * w).sum(axis=1), offs
