"""Raycasting volume renderer (Section III-B): the semi-structured kernel.

Image-order volume rendering: for every output pixel, cast a ray from
the eye through the pixel, sample the scalar field along the ray inside
the volume, classify each sample through a transfer function, and
composite front-to-back.  With perspective projection every ray has a
unique slope, so every ray traverses memory differently — the paper's
"semi-structured" access pattern, and the reason array-order performance
swings with viewpoint while Z-order stays flat.

As with the bilateral filter, the renderer exposes a numpy value path
(actual pixels, testable against analytic fields) and a stream path
(the exact sample-load sequence per tile) that drives the simulator.
The stream path runs in two steps: a traversal
(:meth:`RaycastRenderer.traverse`: rays, box clipping, sample
positions, brick skipping, early termination and the voxel each load
reads, none of which a layout changes) and its addressing through the
grid's layout, so cells that differ only in layout can share one
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.grid import Grid
from ..core.layout import coord_dtype
from ..instrument import trace as _trace
from ..memsim.address import AddressSpace
from ..memsim.trace import TraceChunk, concat_chunks
from ..parallel.tiles import Tile, tile_pixels
from .camera import Camera, generate_rays
from .sampling import (
    nearest_voxels,
    sample_nearest,
    sample_trilinear,
    trilinear_voxels,
)
from .transfer import TransferFunction

__all__ = ["RenderSpec", "ray_box_intersect", "RaycastRenderer", "RayReads",
           "TileResult"]


@dataclass(frozen=True)
class RenderSpec:
    """Raycasting parameters.

    Attributes
    ----------
    step : float
        Sample spacing along the ray, in voxel units.
    sampler : {"nearest", "trilinear"}
        Reconstruction filter.  ``nearest`` loads one element per
        sample; ``trilinear`` loads the 8 cell corners.
    early_termination : float or None
        Stop a ray once accumulated opacity exceeds this threshold
        (None = off, the measured configuration: it keeps the access
        stream independent of the data values).
    max_steps : int
        Hard per-ray cap (guards against degenerate step sizes).
    """

    step: float = 1.0
    sampler: str = "nearest"
    early_termination: Optional[float] = None
    max_steps: int = 4096

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.sampler not in ("nearest", "trilinear"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.early_termination is not None and not 0 < self.early_termination <= 1:
            raise ValueError("early_termination must be in (0, 1]")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


def ray_box_intersect(origins: np.ndarray, dirs: np.ndarray,
                      lo: np.ndarray, hi: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Slab-method ray/AABB intersection, vectorized over rays.

    Returns ``(t_near, t_far)``; a ray misses the box when
    ``t_near >= t_far`` or ``t_far <= 0``.  ``t_near`` is clamped to 0
    (rays starting inside the box sample from their origin).
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t0 = (lo[None, :] - origins) * inv
        t1 = (hi[None, :] - origins) * inv
    # where dirs == 0: ray parallel to slab; inside test via +-inf from numpy
    tmin = np.minimum(t0, t1)
    tmax = np.maximum(t0, t1)
    # parallel rays outside the slab produce nan; treat as miss
    tmin = np.where(np.isnan(tmin), -np.inf, tmin)
    tmax = np.where(np.isnan(tmax), np.inf, tmax)
    t_near = np.maximum(tmin.max(axis=1), 0.0)
    t_far = tmax.min(axis=1)
    return t_near, t_far


@dataclass
class TileResult:
    """Output of rendering one tile.

    Attributes
    ----------
    rgba : np.ndarray or None
        ``(h, w, 4)`` pixel values (None when values were skipped).
    trace : TraceChunk or None
        The tile's access stream (None when no address space was given).
    n_samples : int
        Composited samples (the renderer's op count).
    """

    rgba: Optional[np.ndarray]
    trace: Optional[TraceChunk]
    n_samples: int


@dataclass(frozen=True)
class RayReads:
    """One pixel list's traversal: what its trace holds, short of addresses.

    Attributes
    ----------
    voxels : np.ndarray
        ``(3, n)`` coordinates of the voxel behind each grid load, in
        load order, after brick skipping and early termination.
    structure : np.ndarray or None
        Skip-structure offsets looked up by every in-volume sample, when
        the renderer skips and the traversal was asked for them (None
        also when no ray enters the volume).
    n_rays : int
        Rays cast.
    n_samples : int
        Composited samples (the renderer's op count).
    rgba : np.ndarray or None
        ``(n_rays, 4)`` pixel values, when compositing ran.
    """

    voxels: np.ndarray
    structure: Optional[np.ndarray]
    n_rays: int
    n_samples: int
    rgba: Optional[np.ndarray]


class RaycastRenderer:
    """Perspective/orthographic raycaster over a layout-backed grid.

    Parameters
    ----------
    grid, transfer, spec : see :class:`RenderSpec`.
    skip : MinMaxBricks, optional
        Empty-space-skipping structure (see
        :mod:`repro.kernels.acceleration`).  Samples whose brick cannot
        produce opacity under ``transfer`` are neither loaded nor
        composited; the classification footprint automatically covers
        trilinear corner reads.
    """

    def __init__(self, grid: Grid, transfer: TransferFunction,
                 spec: Optional[RenderSpec] = None, skip=None):
        self.grid = grid
        self.transfer = transfer
        self.spec = spec or RenderSpec()
        shape = np.asarray(grid.shape, dtype=np.float64)
        self._lo = np.zeros(3)
        self._hi = shape - 1.0
        self.skip = skip
        self._skip_active = None
        if skip is not None:
            footprint = 1 if self.spec.sampler == "trilinear" else 0
            self._skip_active = skip.classify(transfer, footprint=footprint)

    # -- geometry ----------------------------------------------------------------

    def _sample_positions(self, camera: Camera, px: np.ndarray, py: np.ndarray):
        """Every ray's in-volume samples, ray-major and step-minor.

        Returns ``(pts, ray, step, n_steps)``: sample ``i`` is step
        ``step[i]`` of ray ``ray[i]``, at ``t_near + (step + 0.5) *
        spec.step`` along it, clipped to the volume box into
        ``pts[i]``; ray ``r`` takes ``n_steps[r]`` samples.
        """
        origins, dirs = generate_rays(camera, px, py)
        t_near, t_far = ray_box_intersect(origins, dirs, self._lo, self._hi)
        hit = t_far > t_near
        # missed rays can carry infinite slab parameters; zero them so
        # they take no steps
        t_near = np.where(hit, t_near, 0.0)
        span = np.where(hit, t_far - t_near, 0.0)
        n_steps = np.minimum(
            np.ceil(span / self.spec.step).astype(np.int64), self.spec.max_steps
        )
        ray = np.repeat(np.arange(n_steps.size), n_steps)
        step = np.arange(ray.size) - np.repeat(np.cumsum(n_steps) - n_steps,
                                               n_steps)
        t = t_near[ray] + (step + 0.5) * self.spec.step
        # built coordinate-major, so every elementwise pass runs over a
        # contiguous row rather than (n, 3) rows of three
        pts = np.take(dirs.T, ray, axis=1)
        pts *= t
        pts += np.take(origins.T, ray, axis=1)
        for c in range(3):
            np.clip(pts[c], self._lo[c], self._hi[c], out=pts[c])
        return pts.T, ray, step, n_steps

    def _composite(self, values: np.ndarray, ray: np.ndarray,
                   step: np.ndarray, n_rays: int, max_steps: int):
        """Front-to-back compositing of the loaded samples.

        Returns ``(rgba, term_step)``: ``(n_rays, 4)`` pixel values and,
        per ray, the step count at which early termination stopped it
        (``max_steps`` when it never did).
        """
        spec = self.spec
        term_step = np.full(n_rays, max_steps, dtype=np.int64)
        if not max_steps:
            return np.zeros((n_rays, 4)), term_step
        flat = ray * max_steps + step
        scalars = np.zeros(n_rays * max_steps, dtype=np.float64)
        scalars[flat] = values
        valid = np.zeros(n_rays * max_steps, dtype=bool)
        valid[flat] = True
        rgba = self.transfer(scalars.reshape(n_rays, max_steps))
        # opacity correction for the sample spacing
        alpha = 1.0 - np.power(1.0 - np.clip(rgba[..., 3], 0.0, 1.0), spec.step)
        alpha = np.where(valid.reshape(n_rays, max_steps), alpha, 0.0)
        color_acc = np.zeros((n_rays, 3))
        alpha_acc = np.zeros(n_rays)
        for s in range(max_steps):
            w = (1.0 - alpha_acc) * alpha[:, s]
            color_acc += w[:, None] * rgba[:, s, :3]
            alpha_acc += w
            if spec.early_termination is not None:
                newly = (alpha_acc >= spec.early_termination) & (term_step == max_steps)
                term_step[newly] = s + 1
        return np.concatenate([color_acc, alpha_acc[:, None]], axis=1), term_step

    # -- main entry ----------------------------------------------------------------

    def traverse(self, camera: Camera, px: np.ndarray, py: np.ndarray,
                 want_values: bool = True,
                 structure: bool = False) -> RayReads:
        """The traversal of a pixel list: every load, short of its address.

        Ray-major, sample-minor (each pixel's ray is integrated to
        completion before the next pixel starts), matching the paper's
        per-pixel outer loop.  Only in-volume samples are built;
        compositing (for values or early termination) scatters them
        onto a ``(rays, max_steps)`` array and is the one step that
        reads the grid.  ``structure`` asks for the skip structure's
        lookups as well.  No layout changes the result, so one
        traversal serves the pixels on every layout.
        """
        spec = self.spec
        pts, ray, step, n_steps = self._sample_positions(camera, px, py)
        n_rays = n_steps.size
        max_steps = int(n_steps.max()) if n_rays else 0
        struct = None
        if self._skip_active is not None:
            # the structure lookup happens for every in-volume sample;
            # only active-brick samples proceed to load and composite
            if structure and ray.size:
                struct = self.skip.structure_offsets(pts)
            active = self.skip.active_mask_for_points(pts, self._skip_active)
            pts, ray, step = pts[active], ray[active], step[active]

        nearest = spec.sampler == "nearest"
        voxels = np.array((nearest_voxels if nearest else trilinear_voxels)(
            self.grid.shape, pts), dtype=coord_dtype(self.grid.shape))
        rgba_img = None
        n_samples = int(ray.size)
        if want_values or spec.early_termination is not None:
            sampler = sample_nearest if nearest else sample_trilinear
            values = sampler(self.grid, pts)[0] if ray.size else np.empty(0)
            rgba_img, term_step = self._composite(values, ray, step, n_rays,
                                                  max_steps)
            if spec.early_termination is not None:
                # truncate both the op count and the loads at termination
                kept = step < term_step[ray]
                n_samples = int(kept.sum())
                if not nearest:
                    kept = np.repeat(kept, 8)
                voxels = voxels[:, kept]
        return RayReads(voxels=voxels, structure=struct, n_rays=n_rays,
                        n_samples=n_samples, rgba=rgba_img)

    def address(self, reads: RayReads, space: AddressSpace) -> TraceChunk:
        """The access stream of a traversal, through this grid's layout."""
        struct_trace = None
        if reads.structure is not None:
            base = space.register_object(self.skip, self.skip.n_bricks * 8)
            struct_trace = TraceChunk.from_offsets(
                reads.structure, 8, space.line_bytes, base_bytes=base)
        if reads.voxels.shape[1]:
            offsets = self.grid.offsets(*reads.voxels.astype(np.int64))
        else:
            offsets = np.empty(0, dtype=np.int64)
        trace = TraceChunk.from_offsets(
            offsets, self.grid.itemsize, space.line_bytes,
            base_bytes=space.register(self.grid), n_ops=reads.n_samples,
        )
        if struct_trace is not None:
            trace = concat_chunks([struct_trace, trace])
        return trace

    def render_pixels(self, camera: Camera, px: np.ndarray, py: np.ndarray,
                      space: Optional[AddressSpace] = None,
                      want_values: bool = True) -> TileResult:
        """Render a pixel list; optionally also emit the access stream.

        :meth:`traverse` and, given ``space``, :meth:`address`.
        """
        reads = self.traverse(camera, px, py, want_values=want_values,
                              structure=space is not None)
        return self._result(reads, space, want_values)

    def _result(self, reads: RayReads, space: Optional[AddressSpace],
                want_values: bool) -> TileResult:
        return TileResult(
            rgba=reads.rgba if want_values else None,
            trace=None if space is None else self.address(reads, space),
            n_samples=reads.n_samples,
        )

    def render_tile(self, camera: Camera, tile: Tile,
                    space: Optional[AddressSpace] = None,
                    want_values: bool = True, ray_step: int = 1) -> TileResult:
        """Render one image tile (optionally subsampling rays by ``ray_step``)."""
        return self.render_tile_shared(camera, tile, space, want_values,
                                       ray_step)[0]

    def render_tile_shared(self, camera: Camera, tile: Tile,
                           space: Optional[AddressSpace] = None,
                           want_values: bool = True, ray_step: int = 1,
                           reads: Optional[RayReads] = None
                           ) -> Tuple[TileResult, RayReads]:
        """:meth:`render_tile`, also returning the tile's traversal.

        ``reads``, when given, is the traversal of the same tile with the
        same camera, arguments and renderer settings, typically kept
        from a cell on another layout; only its addressing through this
        grid's layout runs.
        """
        with _trace.span("volrend.tile", x0=tile.x0, y0=tile.y0) as sp:
            if reads is None:
                px, py = tile_pixels(tile, step=ray_step)
                reads = self.traverse(camera, px, py, want_values=want_values,
                                      structure=space is not None)
            result = self._result(reads, space, want_values)
            if result.rgba is not None and ray_step == 1:
                result.rgba = result.rgba.reshape(tile.h, tile.w, 4)
            sp.add("rays", reads.n_rays)
            sp.add("samples", result.n_samples)
            if result.trace is not None:
                sp.add("lines", result.trace.lines.size)
            return result, reads

    def render_image(self, camera: Camera) -> np.ndarray:
        """Render the full image; returns ``(height, width, 4)`` RGBA."""
        px, py = np.meshgrid(
            np.arange(camera.width), np.arange(camera.height), indexing="xy"
        )
        result = self.render_pixels(camera, px.ravel(), py.ravel())
        return result.rgba.reshape(camera.height, camera.width, 4)
