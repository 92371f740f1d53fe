"""Domain decomposition across distributed-memory ranks.

The paper's renderer is hybrid-parallel (its reference [18]): MPI ranks
each own a sub-volume and render it with the shared-memory machinery the
paper studies.  This module provides the rank-level decomposition: the
volume is cut into equal blocks, and blocks are assigned to ranks either
in scanline order (contiguous slabs) or along a space-filling curve —
the distributed-memory use of SFCs the paper cites via DeFord &
Kalyanaraman: curve-ordered partitions are *compact*, so they expose
less surface per rank and therefore less halo/ghost communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.bits import ilog2, is_power_of_two
from ..core.hilbert import hilbert_encode
from ..core.morton import morton_encode_3d

__all__ = ["Block", "BlockDecomposition", "CartesianGridPartition",
           "PARTITION_ORDERS", "process_grid"]

PARTITION_ORDERS = ("scan", "morton", "hilbert")


def process_grid(n_ranks: int,
                 shape: Sequence[int]) -> Tuple[int, int, int]:
    """Factor ``n_ranks`` into a (px, py, pz) process grid over ``shape``.

    The classic Cartesian-communicator shape (``MPI_Dims_create``
    discipline): among all factorizations whose per-axis counts fit
    the extents, pick the one minimizing the surface area of the
    resulting box — the same halo-minimization objective the rest of
    this module scores.  Deterministic tie-break by the factorization
    tuple itself.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    nx, ny, nz = (int(s) for s in shape)
    best = None
    for px in range(1, n_ranks + 1):
        if n_ranks % px:
            continue
        rest = n_ranks // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            if px > nx or py > ny or pz > nz:
                continue
            bx, by, bz = nx / px, ny / py, nz / pz
            surface = 2.0 * (bx * by + by * bz + bz * bx)
            key = (surface, (px, py, pz))
            if best is None or key < best:
                best = key
    if best is None:
        raise ValueError(
            f"{n_ranks} ranks do not factor into grid {shape}")
    return best[1]


class CartesianGridPartition:
    """A rigid box-grid decomposition: ``n_ranks`` boxes, one per rank.

    The **block-Cartesian strawman** the elastic serving tier measures
    itself against (:mod:`repro.serve.cluster`): the grid is cut into
    a :func:`process_grid` of near-cubic boxes with balanced per-axis
    boundaries, rank = box position in the process grid.  Good halo
    behavior — but the box *topology* is a function of the rank
    count, so adding or removing one rank recuts every boundary and
    most cells change owner.  Contiguous SFC ranges, by contrast,
    move only the ranges that crossed the changed rank; that gap is
    exactly what the chaos gate pins.
    """

    def __init__(self, shape: Sequence[int], n_ranks: int):
        self.shape = tuple(int(s) for s in shape)
        self.n_ranks = int(n_ranks)
        self.dims = process_grid(self.n_ranks, self.shape)
        # balanced split points per axis: axis i of extent n cut into
        # p runs of floor/ceil(n/p) cells
        self._bounds = [
            [round(i * n / p) for i in range(p + 1)]
            for n, p in zip(self.shape, self.dims)]

    def _axis_rank(self, axis: int, coord: int) -> int:
        bounds = self._bounds[axis]
        for i in range(len(bounds) - 1):
            if bounds[i] <= coord < bounds[i + 1]:
                return i
        raise IndexError(
            f"coordinate {coord} outside axis {axis} of {self.shape}")

    def rank_of(self, i: int, j: int, k: int) -> int:
        """Owning rank of grid cell ``(i, j, k)``."""
        px, py, _ = self.dims
        bi = self._axis_rank(0, i)
        bj = self._axis_rank(1, j)
        bk = self._axis_rank(2, k)
        return bi + px * (bj + py * bk)

    def rank_map(self) -> np.ndarray:
        """Dense (nx, ny, nz) array of owning ranks."""
        out = np.empty(self.shape, dtype=np.int64)
        for i in range(self.shape[0]):
            for j in range(self.shape[1]):
                for k in range(self.shape[2]):
                    out[i, j, k] = self.rank_of(i, j, k)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CartesianGridPartition(shape={self.shape}, "
                f"ranks={self.n_ranks}, dims={self.dims})")


@dataclass(frozen=True)
class Block:
    """One decomposition block: grid-index origin and extent."""

    origin: Tuple[int, int, int]
    extent: Tuple[int, int, int]

    @property
    def n_points(self) -> int:
        """Voxels inside the block."""
        ex, ey, ez = self.extent
        return ex * ey * ez

    def surface_points(self, radius: int = 1) -> int:
        """Ghost-layer size: points within ``radius`` outside the block
        that a ``radius``-stencil on the block must read (clamped halo
        of thickness ``radius`` on all six faces, edges and corners)."""
        ex, ey, ez = self.extent
        padded = (ex + 2 * radius) * (ey + 2 * radius) * (ez + 2 * radius)
        return padded - self.n_points


class BlockDecomposition:
    """Cut a volume into a regular block grid and assign blocks to ranks.

    Parameters
    ----------
    shape : (nx, ny, nz)
        Volume extent; must divide evenly by ``block``.
    block : int or (bx, by, bz)
        Block edge length(s).
    n_ranks : int
        Number of ranks; blocks are dealt out in ``order`` sequence in
        contiguous runs of ``n_blocks // n_ranks`` (remainder spread over
        the first ranks), so each rank owns a contiguous curve segment.
    order : {"scan", "morton", "hilbert"}
        Block enumeration order.  ``scan`` yields slab-ish partitions;
        the curve orders yield compact, cube-ish ones.
    """

    def __init__(self, shape: Sequence[int], block, n_ranks: int,
                 order: str = "morton"):
        self.shape = tuple(int(s) for s in shape)
        if isinstance(block, int):
            block = (block, block, block)
        self.block = tuple(int(b) for b in block)
        if any(s % b for s, b in zip(self.shape, self.block)):
            raise ValueError(
                f"shape {self.shape} not divisible by block {self.block}")
        if n_ranks < 1:
            raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
        if order not in PARTITION_ORDERS:
            raise ValueError(
                f"order must be one of {PARTITION_ORDERS}, got {order!r}")
        self.n_ranks = n_ranks
        self.order = order
        self.grid = tuple(s // b for s, b in zip(self.shape, self.block))
        n_blocks = self.grid[0] * self.grid[1] * self.grid[2]
        if n_ranks > n_blocks:
            raise ValueError(
                f"{n_ranks} ranks exceed {n_blocks} blocks; use smaller blocks")
        self._block_coords = self._enumerate_blocks()
        self._rank_of = self._assign_ranks()

    # -- construction -----------------------------------------------------------

    def _enumerate_blocks(self) -> List[Tuple[int, int, int]]:
        gx, gy, gz = self.grid
        coords = [(bi, bj, bk)
                  for bk in range(gz) for bj in range(gy) for bi in range(gx)]
        if self.order == "scan":
            return coords
        if self.order == "morton":
            coords.sort(key=lambda c: int(morton_encode_3d(*c)))
            return coords
        side = max(self.grid)
        order_bits = max(1, (side - 1).bit_length())
        coords.sort(key=lambda c: int(hilbert_encode(c, order_bits)))
        return coords

    def _assign_ranks(self) -> Dict[Tuple[int, int, int], int]:
        n_blocks = len(self._block_coords)
        base, extra = divmod(n_blocks, self.n_ranks)
        rank_of = {}
        idx = 0
        for rank in range(self.n_ranks):
            count = base + (1 if rank < extra else 0)
            for _ in range(count):
                rank_of[self._block_coords[idx]] = rank
                idx += 1
        return rank_of

    # -- queries ------------------------------------------------------------------

    def rank_of_voxel(self, i: int, j: int, k: int) -> int:
        """Owning rank of voxel ``(i, j, k)``."""
        bx, by, bz = self.block
        return self._rank_of[(i // bx, j // by, k // bz)]

    def blocks_of_rank(self, rank: int) -> List[Block]:
        """All blocks owned by ``rank``."""
        bx, by, bz = self.block
        return [
            Block(origin=(bi * bx, bj * by, bk * bz), extent=self.block)
            for (bi, bj, bk), r in self._rank_of.items() if r == rank
        ]

    def rank_map(self) -> np.ndarray:
        """Dense (gx, gy, gz) array of owning ranks, for tests/plots."""
        out = np.empty(self.grid, dtype=np.int64)
        for (bi, bj, bk), rank in self._rank_of.items():
            out[bi, bj, bk] = rank
        return out

    # -- metrics --------------------------------------------------------------------

    def load_balance(self) -> float:
        """Max rank voxel count / mean rank voxel count (1.0 = perfect)."""
        counts = np.bincount(
            [r for r in self._rank_of.values()], minlength=self.n_ranks
        ) * self.block[0] * self.block[1] * self.block[2]
        return float(counts.max() / counts.mean())

    def halo_bytes(self, radius: int, itemsize: int = 4) -> Dict[int, int]:
        """Per-rank ghost-exchange volume for a ``radius``-stencil sweep.

        A rank must receive every off-rank voxel within ``radius`` of a
        voxel it owns (volume-boundary voxels need no exchange).  This
        counts exactly those voxels, per receiving rank, times
        ``itemsize`` — the bytes entering each rank per halo exchange.
        """
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        nx, ny, nz = self.shape
        bx, by, bz = self.block
        received: Dict[int, set] = {r: set() for r in range(self.n_ranks)}
        # walk block faces only: interior voxels can't be in any halo
        for (bi, bj, bk), rank in self._rank_of.items():
            x0, y0, z0 = bi * bx, bj * by, bk * bz
            for i in range(x0 - radius, x0 + bx + radius):
                if not 0 <= i < nx:
                    continue
                inside_x = x0 <= i < x0 + bx
                for j in range(y0 - radius, y0 + by + radius):
                    if not 0 <= j < ny:
                        continue
                    inside_y = y0 <= j < y0 + by
                    for k in range(z0 - radius, z0 + bz + radius):
                        if not 0 <= k < nz:
                            continue
                        if inside_x and inside_y and z0 <= k < z0 + bz:
                            continue
                        if self.rank_of_voxel(i, j, k) != rank:
                            received[rank].add((i, j, k))
        return {r: len(pts) * itemsize for r, pts in received.items()}

    def total_halo_bytes(self, radius: int, itemsize: int = 4) -> int:
        """Sum of :meth:`halo_bytes` over ranks."""
        return sum(self.halo_bytes(radius, itemsize).values())

    def halo_matrix(self, radius: int, itemsize: int = 4
                    ) -> Dict[Tuple[int, int], int]:
        """Pairwise exchange volume: ``{(receiver, sender): bytes}``.

        The same ghost voxels as :meth:`halo_bytes`, attributed to the
        rank that owns (and therefore sends) each one.
        """
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        nx, ny, nz = self.shape
        bx, by, bz = self.block
        pair_voxels: Dict[Tuple[int, int], set] = {}
        for (bi, bj, bk), rank in self._rank_of.items():
            x0, y0, z0 = bi * bx, bj * by, bk * bz
            for i in range(x0 - radius, x0 + bx + radius):
                if not 0 <= i < nx:
                    continue
                inside_x = x0 <= i < x0 + bx
                for j in range(y0 - radius, y0 + by + radius):
                    if not 0 <= j < ny:
                        continue
                    inside_y = y0 <= j < y0 + by
                    for k in range(z0 - radius, z0 + bz + radius):
                        if not 0 <= k < nz:
                            continue
                        if inside_x and inside_y and z0 <= k < z0 + bz:
                            continue
                        sender = self.rank_of_voxel(i, j, k)
                        if sender != rank:
                            pair_voxels.setdefault((rank, sender),
                                                   set()).add((i, j, k))
        return {pair: len(pts) * itemsize
                for pair, pts in pair_voxels.items()}

    def voxels_of_rank(self, rank: int) -> int:
        """Voxels owned by ``rank``."""
        return sum(b.n_points for b in self.blocks_of_rank(rank))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockDecomposition(shape={self.shape}, block={self.block}, "
            f"ranks={self.n_ranks}, order={self.order!r})"
        )
