"""3-D bilateral filter (Section III-A): the structured-access kernel.

The bilateral filter (Tomasi & Manduchi 1998, extended to volumes) is an
edge-preserving smoother: each output voxel is the weighted average of
its stencil neighbourhood, with weights the product of a *geometric*
Gaussian ``g`` (distance in space, Eq. 3) and a *photometric* Gaussian
``c`` (distance in value), normalized by ``k(i)`` (Eq. 2):

    D(i) = (1 / k(i)) * sum_ibar g(i, ibar) * c(i, ibar) * S(ibar)
    k(i) = sum_ibar g(i, ibar) * c(i, ibar)

Stencil taps falling outside the volume are skipped (the normalization
absorbs the truncation at borders).

The class exposes both faces of the study:

* a **value path** — numpy-vectorized computation of the filtered
  volume (per pencil via layout-mediated gathers, or densely via
  shifted slices as an independent reference);
* a **stream path** — the exact per-pencil sequence of stencil reads
  the paper's C implementation performs, in the configured stencil
  iteration order (``xyz`` = innermost loop over x, the array-friendly
  order; ``zyx`` = innermost loop over z, the deliberately
  against-the-grain order), which feeds the memory simulator.  It runs
  in two steps: a traversal (:meth:`BilateralFilter3D.pencil_reads`,
  the voxel each load reads, which no layout changes) and its
  addressing through the grid's layout, so cells that differ only in
  layout can share one traversal.

Paper stencil labels: ``r1`` → 3³, ``r3`` → 5³, ``r5`` → 11³.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.grid import Grid
from ..core.layout import Layout, coord_dtype
from ..instrument import trace as _trace
from ..memsim.address import AddressSpace
from ..memsim.trace import TraceChunk, collapse_consecutive, offsets_to_lines
from ..parallel.pencil import Pencil, pencil_coords

__all__ = ["BilateralSpec", "BilateralFilter3D", "PencilReads",
           "STENCIL_LABELS"]

#: Paper's row labels → stencil radius (stencil edge = 2*radius + 1).
STENCIL_LABELS = {"r1": 1, "r3": 2, "r5": 5}


@dataclass(frozen=True)
class BilateralSpec:
    """Filter parameters.

    Attributes
    ----------
    radius : int
        Stencil radius; the stencil is ``(2*radius + 1)**3`` taps.
    sigma_spatial : float
        Geometric Gaussian width (Eq. 3's sigma), in voxels.
    sigma_range : float
        Photometric Gaussian width, in value units.
    stencil_order : {"xyz", "zyx"}
        Innermost-to-outermost iteration order of the stencil loops.
        Affects the access stream only, never the arithmetic result.
    """

    radius: int = 1
    sigma_spatial: float = 1.5
    sigma_range: float = 0.2
    stencil_order: str = "xyz"

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.stencil_order not in ("xyz", "zyx"):
            raise ValueError(
                f"stencil_order must be 'xyz' or 'zyx', got {self.stencil_order!r}"
            )
        if self.sigma_spatial <= 0 or self.sigma_range <= 0:
            raise ValueError("sigma_spatial and sigma_range must be positive")

    @property
    def edge(self) -> int:
        """Stencil edge length ``2*radius + 1``."""
        return 2 * self.radius + 1

    @property
    def n_taps(self) -> int:
        """Taps per output voxel."""
        return self.edge ** 3


@dataclass(frozen=True)
class PencilReads:
    """One pencil's traversal: what its trace holds, short of addresses.

    Attributes
    ----------
    voxels : np.ndarray
        ``(3, n)`` coordinates of the voxel each in-bounds tap reads, in
        load order.
    ends : np.ndarray
        Per output voxel, how many taps have been read once its own are
        done (where its store goes when writes are traced).
    """

    voxels: np.ndarray
    ends: np.ndarray


class BilateralFilter3D:
    """Bilateral filter with layout-transparent access (paper Section III)."""

    def __init__(self, spec: BilateralSpec):
        self.spec = spec
        self._dx, self._dy, self._dz = self._tap_offsets()
        # Geometric weights g depend only on the offset; precompute
        # (the paper notes the g portion of k(i) is precomputable).
        d2 = (self._dx.astype(np.float64) ** 2
              + self._dy.astype(np.float64) ** 2
              + self._dz.astype(np.float64) ** 2)
        self._g = np.exp(-0.5 * d2 / spec.sigma_spatial ** 2)

    def _tap_offsets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stencil offsets in the configured iteration order.

        ``xyz``: dx varies fastest (innermost loop over x);
        ``zyx``: dz varies fastest (innermost loop over z).
        """
        r = self.spec.radius
        span = np.arange(-r, r + 1, dtype=np.int64)
        if self.spec.stencil_order == "xyz":
            dz, dy, dx = np.meshgrid(span, span, span, indexing="ij")
        else:
            dx, dy, dz = np.meshgrid(span, span, span, indexing="ij")
        return dx.ravel(), dy.ravel(), dz.ravel()

    # -- per-pencil machinery ---------------------------------------------------

    def _pencil_taps(self, shape, pencil: Pencil):
        """Neighbour coordinates and validity mask for one pencil.

        Returns ``(ii, jj, kk, valid)`` of shape ``(n_voxels, n_taps)``
        where row ``v`` lists output voxel ``v``'s taps in stencil order;
        coordinates are of :func:`~repro.core.layout.coord_dtype`.
        """
        dtype = coord_dtype(shape, self.spec.radius)
        i0, j0, k0 = pencil_coords(pencil, shape)
        ii = i0.astype(dtype)[:, None] + self._dx.astype(dtype)[None, :]
        jj = j0.astype(dtype)[:, None] + self._dy.astype(dtype)[None, :]
        kk = k0.astype(dtype)[:, None] + self._dz.astype(dtype)[None, :]
        nx, ny, nz = shape
        valid = (
            (ii >= 0) & (ii < nx)
            & (jj >= 0) & (jj < ny)
            & (kk >= 0) & (kk < nz)
        )
        return ii, jj, kk, valid

    def pencil_values(self, grid: Grid, pencil: Pencil) -> np.ndarray:
        """Filtered values of one pencil (the value path)."""
        shape = grid.shape
        ii, jj, kk, valid = self._pencil_taps(shape, pencil)
        # Clamp invalid taps to a safe coordinate, then zero their weight.
        ic = np.clip(ii, 0, shape[0] - 1)
        jc = np.clip(jj, 0, shape[1] - 1)
        kc = np.clip(kk, 0, shape[2] - 1)
        neigh = grid.gather(ic, jc, kc).astype(np.float64)
        i0, j0, k0 = pencil_coords(pencil, shape)
        center = grid.gather(i0, j0, k0).astype(np.float64)[:, None]
        w = self._g[None, :] * np.exp(
            -0.5 * ((neigh - center) / self.spec.sigma_range) ** 2
        )
        w = np.where(valid, w, 0.0)
        k_norm = w.sum(axis=1)
        return (w * neigh).sum(axis=1) / k_norm

    def pencil_reads(self, shape, pencil: Pencil) -> PencilReads:
        """The traversal of one pencil: every in-bounds tap's voxel.

        Voxel-major, tap-minor in the configured stencil order — the
        loads of the C loop nest.  No layout enters it, so one
        traversal serves the pencil on every layout.
        """
        ii, jj, kk, valid = self._pencil_taps(shape, pencil)
        flat = valid.ravel()
        voxels = np.empty((3, int(np.count_nonzero(flat))), dtype=ii.dtype)
        for row, axis in zip(voxels, (ii, jj, kk)):
            np.compress(flat, axis.ravel(), out=row)
        return PencilReads(voxels=voxels,
                           ends=np.cumsum(np.count_nonzero(valid, axis=1)))

    def pencil_trace(self, grid: Grid, pencil: Pencil,
                     space: AddressSpace,
                     out_grid: Optional[Grid] = None) -> TraceChunk:
        """Access stream of one pencil (the stream path).

        The stream is voxel-major, tap-minor in the configured stencil
        order, skipping out-of-bounds taps — exactly the loads of the C
        loop nest.  One op per tap is charged for the compute model.

        When ``out_grid`` is given, the store of each output voxel is
        appended after its taps (write-allocate caches treat the store
        like a read of the target line), so the trace carries the full
        read+write traffic of the loop nest.
        """
        return self.pencil_trace_shared(grid, pencil, space, out_grid)[0]

    def pencil_trace_shared(self, grid: Grid, pencil: Pencil,
                            space: AddressSpace,
                            out_grid: Optional[Grid] = None,
                            reads: Optional[PencilReads] = None
                            ) -> Tuple[TraceChunk, PencilReads]:
        """:meth:`pencil_trace`, also returning the pencil's traversal.

        ``reads``, when given, is :meth:`pencil_reads` of the same
        pencil and volume shape, typically kept from a cell on another
        layout; only its addressing through ``grid``'s layout runs.
        """
        with _trace.span("bilateral.pencil", axis=pencil.axis) as sp:
            if reads is None:
                reads = self.pencil_reads(grid.shape, pencil)
            n_ops = reads.voxels.shape[1]
            offs = grid.offsets(*reads.voxels.astype(np.int64))
            read_lines = offsets_to_lines(offs, grid.itemsize, space.line_bytes,
                                          space.register(grid))
            if out_grid is None:
                lines = read_lines
            else:
                i0, j0, k0 = pencil_coords(pencil, grid.shape)
                w_offs = out_grid.offsets(i0, j0, k0)
                write_lines = offsets_to_lines(
                    w_offs, out_grid.itemsize, space.line_bytes,
                    space.register(out_grid))
                # each voxel's store lands right after its last tap
                lines = np.insert(read_lines, reads.ends, write_lines)
                n_ops += write_lines.size
            collapsed, removed = collapse_consecutive(lines)
            sp.add("voxels", reads.ends.size)
            sp.add("taps", n_ops)
            sp.add("lines", collapsed.size)
            return TraceChunk(lines=collapsed, collapsed_hits=removed,
                              n_ops=n_ops), reads

    # -- whole-volume value paths -------------------------------------------------

    def apply(self, grid: Grid, out_layout: Optional[Layout] = None,
              pencil_axis: int = 0) -> Grid:
        """Filter a whole grid via the pencil value path.

        Mirrors the parallel decomposition (pencils along
        ``pencil_axis``) but computes serially; results are identical to
        :meth:`apply_dense` and independent of ``pencil_axis``.
        """
        from ..parallel.pencil import enumerate_pencils

        out = Grid(out_layout or grid.layout, dtype=grid.dtype)
        if out.layout.shape != grid.shape:
            raise ValueError("output layout shape must match input grid shape")
        for pencil in enumerate_pencils(grid.shape, pencil_axis):
            i, j, k = pencil_coords(pencil, grid.shape)
            out.scatter(i, j, k, self.pencil_values(grid, pencil))
        return out

    def apply_dense(self, dense: np.ndarray) -> np.ndarray:
        """Independent dense reference via shifted-slice accumulation.

        Used by tests to validate the gather-based path; O(n_taps) numpy
        slice operations, no layout involvement.
        """
        dense = np.asarray(dense, dtype=np.float64)
        nx, ny, nz = dense.shape
        acc = np.zeros_like(dense)
        norm = np.zeros_like(dense)
        r = self.spec.radius
        sr2 = 2.0 * self.spec.sigma_range ** 2
        for t in range(self._dx.size):
            dx, dy, dz = int(self._dx[t]), int(self._dy[t]), int(self._dz[t])
            # destination region (centres whose tap stays in bounds)
            xs, xe = max(0, -dx), min(nx, nx - dx)
            ys, ye = max(0, -dy), min(ny, ny - dy)
            zs, ze = max(0, -dz), min(nz, nz - dz)
            if xs >= xe or ys >= ye or zs >= ze:
                continue
            src = dense[xs + dx:xe + dx, ys + dy:ye + dy, zs + dz:ze + dz]
            ctr = dense[xs:xe, ys:ye, zs:ze]
            w = self._g[t] * np.exp(-((src - ctr) ** 2) / sr2)
            acc[xs:xe, ys:ye, zs:ze] += w * src
            norm[xs:xe, ys:ye, zs:ze] += w
        return acc / norm

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.spec
        return (
            f"BilateralFilter3D(edge={s.edge}, sigma_s={s.sigma_spatial}, "
            f"sigma_r={s.sigma_range}, order={s.stencil_order})"
        )
