"""Empty-space skipping: min–max brick acceleration for the raycaster.

Production volume renderers do not sample homogeneous empty space: a
coarse grid of per-brick scalar min/max bounds is consulted per sample,
and samples whose brick cannot produce opacity under the active transfer
function are skipped.  This module provides that structure and its
transfer-function classification; :class:`~repro.kernels.volrend.RenderSpec`
takes the result via ``skip_space``.

Interplay with the layout study (extension A15): skipping removes
exactly the samples whose loads are cheapest to predict (long empty
runs), so it shrinks the total traffic while leaving the hard,
semi-structured loads — the layout comparison survives, on a smaller
denominator.  The classification itself is conservative:

* for nearest-neighbour sampling, a sample's value lies inside its own
  brick's [min, max], so per-brick bounds are exact;
* for trilinear sampling, corner reads can cross brick borders, so the
  query dilates the bounds over the 3³ brick neighbourhood
  (``footprint=1``) — still conservative, never wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.grid import Grid
from .transfer import TransferFunction

__all__ = ["MinMaxBricks"]


class MinMaxBricks:
    """Per-brick scalar bounds over a grid, with opacity classification.

    Parameters
    ----------
    grid : Grid
        The volume to summarize (values are read through the layout, so
        construction works behind any layout).
    brick : int
        Brick edge length in voxels (the structure has
        ``ceil(n/brick)³`` entries).
    """

    def __init__(self, grid: Grid, brick: int = 8):
        if brick < 1:
            raise ValueError(f"brick must be >= 1, got {brick}")
        self.brick = int(brick)
        self.shape = grid.shape
        dense = grid.to_dense().astype(np.float64)
        nx, ny, nz = self.shape
        b = self.brick
        gx, gy, gz = -(-nx // b), -(-ny // b), -(-nz // b)
        self.grid_shape = (gx, gy, gz)
        # pad partial edge bricks with their own edge voxels, which
        # leaves every brick's min and max as they are
        padded = np.pad(dense, [(0, g * b - n) for g, n in
                                zip(self.grid_shape, self.shape)],
                        mode="edge")
        # axes 1, 3 and 5 of this view run inside a brick; reducing the
        # outermost first makes each step an elementwise min/max of long
        # contiguous slices, and no step copies the padded volume
        bricks = padded.reshape(gx, b, gy, b, gz, b)
        self.mins = bricks.min(axis=1).min(axis=2).min(axis=3)
        self.maxs = bricks.max(axis=1).max(axis=2).max(axis=3)

    @property
    def n_bricks(self) -> int:
        """Total brick count."""
        gx, gy, gz = self.grid_shape
        return gx * gy * gz

    def classify(self, transfer: TransferFunction,
                 footprint: int = 0,
                 samples_per_brick: int = 64,
                 eps: float = 1e-12) -> np.ndarray:
        """Boolean activity per brick: can the TF produce opacity here?

        A brick is *active* when the transfer function's alpha exceeds
        ``eps`` anywhere in the brick's (footprint-dilated) value range,
        probed at ``samples_per_brick`` evenly spaced values plus the TF
        control points falling inside the range (so narrow isosurface
        bumps cannot slip between probes).
        """
        if footprint < 0:
            raise ValueError(f"footprint must be >= 0, got {footprint}")
        lo, hi = self.mins, self.maxs
        if footprint:
            from scipy import ndimage

            size = 2 * footprint + 1
            lo = ndimage.minimum_filter(lo, size=size, mode="nearest")
            hi = ndimage.maximum_filter(hi, size=size, mode="nearest")
        # every brick's evenly spaced probes, in one transfer call; the
        # arithmetic is np.linspace's for one brick, which a batched
        # linspace changes (to k / div * delta) once any brick is flat
        n = samples_per_brick
        step = (hi - lo) / max(n - 1, 1)
        probes = lo[..., None] + np.arange(n) * step[..., None]
        if n > 1:
            probes[..., -1] = hi
        active = transfer(probes)[..., 3].max(axis=-1) > eps
        # control points inside a brick's range, each evaluated once
        control_values = np.array([p[0] for p in transfer.points])
        opaque = control_values[transfer(control_values)[:, 3] > eps]
        active |= ((lo[..., None] <= opaque)
                   & (opaque <= hi[..., None])).any(axis=-1)
        return active

    def active_mask_for_points(self, pts: np.ndarray,
                               active: np.ndarray) -> np.ndarray:
        """Per-sample activity: is each position's brick active?

        ``pts`` is (..., 3) in voxel coordinates; returns a boolean
        array of the leading shape.
        """
        b = self.brick
        nx, ny, nz = self.shape
        i = np.clip(np.rint(pts[..., 0]).astype(np.int64), 0, nx - 1) // b
        j = np.clip(np.rint(pts[..., 1]).astype(np.int64), 0, ny - 1) // b
        k = np.clip(np.rint(pts[..., 2]).astype(np.int64), 0, nz - 1) // b
        return active[i, j, k]

    def structure_offsets(self, pts: np.ndarray) -> np.ndarray:
        """Element offsets of the per-sample structure lookups.

        The min–max grid is itself memory the renderer reads (one entry
        per sample, heavily line-collapsed in practice); callers can
        feed these through the simulator at the structure's own base
        address for full honesty.
        """
        b = self.brick
        gx, gy, _ = self.grid_shape
        nx, ny, nz = self.shape
        i = np.clip(np.rint(pts[..., 0]).astype(np.int64), 0, nx - 1) // b
        j = np.clip(np.rint(pts[..., 1]).astype(np.int64), 0, ny - 1) // b
        k = np.clip(np.rint(pts[..., 2]).astype(np.int64), 0, nz - 1) // b
        return (i + gx * (j + gy * k)).ravel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MinMaxBricks(shape={self.shape}, brick={self.brick}, "
                f"bricks={self.grid_shape})")
