"""Pencil decomposition for the bilateral filter (Section III-A).

The paper parallelizes the filter by assigning a "pencil" of output
voxels — a width-, height-, or depth-row of the volume — to each thread,
round-robin.  ``px`` pencils run along x (width rows), ``pz`` along z
(depth rows); the choice interacts strongly with the layout, which is
one of the study's axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["Pencil", "enumerate_pencils", "round_robin_pencils",
           "pencil_coords", "PENCIL_AXES", "PENCIL_ORDERS"]

#: Pencil enumeration orders: ``scan`` is the paper's nested-loop order;
#: ``morton`` and ``hilbert`` enumerate pencils along a space-filling
#: curve over their two fixed coordinates, so that round-robin threads
#: receive *spatially adjacent* pencils and share cache lines (the
#: traversal-order idea of the paper's Bader citation, applied to work
#: assignment — ablation A8).
PENCIL_ORDERS = ("scan", "morton", "hilbert")

#: Paper's pencil names → the axis the pencil runs along.
PENCIL_AXES = {"px": 0, "py": 1, "pz": 2}


@dataclass(frozen=True)
class Pencil:
    """A 1-D row of voxels along ``axis``, at fixed other coordinates.

    ``fixed`` holds the two constant coordinates in increasing-axis
    order (e.g. for ``axis == 0`` they are ``(j, k)``).
    """

    axis: int
    fixed: Tuple[int, int]

    def __post_init__(self):
        if self.axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {self.axis}")


def _fixed_extents(shape: Sequence[int], axis: int,
                   order: str) -> Tuple[int, int]:
    """Extents of a pencil's two fixed coordinates (validates the args)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    if order not in PENCIL_ORDERS:
        raise ValueError(f"order must be one of {PENCIL_ORDERS}, got {order!r}")
    other = [a for a in range(3) if a != axis]
    return shape[other[0]], shape[other[1]]


def _curve_2d(order: str, lo_n: int, hi_n: int):
    """The 2-D curve a ``morton``/``hilbert`` enumeration follows."""
    if order == "morton":
        from ..core.morton import MortonLayout2D

        return MortonLayout2D((lo_n, hi_n))
    from ..core.hilbert import HilbertLayout2D

    return HilbertLayout2D((lo_n, hi_n))


def enumerate_pencils(shape: Sequence[int], axis: int,
                      order: str = "scan") -> List[Pencil]:
    """All pencils along ``axis``, enumerated in the given ``order``.

    ``scan`` (default, the paper's setup): nested-loop order with the
    lower-numbered fixed axis varying fastest — the order the paper's
    round-robin hands pencils to threads.  ``morton`` / ``hilbert``:
    space-filling-curve order over the two fixed coordinates.
    """
    lo_n, hi_n = _fixed_extents(shape, axis, order)
    pencils = [
        Pencil(axis=axis, fixed=(lo, hi))
        for hi in range(hi_n)
        for lo in range(lo_n)
    ]
    if order == "scan":
        return pencils
    curve = _curve_2d(order, lo_n, hi_n)
    pencils.sort(key=lambda p: curve.index(p.fixed[0], p.fixed[1]))
    return pencils


def round_robin_pencils(shape: Sequence[int], axis: int, n_threads: int,
                        per_thread: int, threads: Iterable[int],
                        order: str = "scan") -> Dict[int, List[Pencil]]:
    """Each listed thread's first ``per_thread`` pencils of a round-robin deal.

    Equal to ``static_round_robin(enumerate_pencils(shape, axis, order),
    n_threads)[t][:per_thread]`` for every ``t`` in ``threads``, without
    building the other pencils: round-robin gives thread ``t``
    enumeration positions ``t, t + n_threads, …``.  Position ``p`` of the
    ``scan`` order is the pencil ``(p mod n_lo, p div n_lo)``; a curve
    order is the stable argsort of the curve's ``index_array`` over the
    scan order.
    """
    if n_threads <= 0:
        raise ValueError(f"n_threads must be positive, got {n_threads}")
    lo_n, hi_n = _fixed_extents(shape, axis, order)
    n = lo_n * hi_n
    scan_pos = np.arange(n, dtype=np.int64)
    if order != "scan":
        key = _curve_2d(order, lo_n, hi_n).index_array(scan_pos % lo_n,
                                                        scan_pos // lo_n)
        scan_pos = np.argsort(key, kind="stable")
    out: Dict[int, List[Pencil]] = {}
    for t in threads:
        if not 0 <= t < n_threads:
            raise ValueError(f"thread {t} outside 0..{n_threads - 1}")
        out[t] = [Pencil(axis=axis, fixed=(p % lo_n, p // lo_n))
                  for p in scan_pos[t::n_threads][:per_thread].tolist()]
    return out


def pencil_coords(pencil: Pencil, shape: Sequence[int]) -> tuple:
    """(i, j, k) arrays for all voxels of ``pencil``, in axis order."""
    n = shape[pencil.axis]
    run = np.arange(n, dtype=np.int64)
    other = [a for a in range(3) if a != pencil.axis]
    coords = [None, None, None]
    coords[pencil.axis] = run
    coords[other[0]] = np.full(n, pencil.fixed[0], dtype=np.int64)
    coords[other[1]] = np.full(n, pencil.fixed[1], dtype=np.int64)
    return coords[0], coords[1], coords[2]
