"""Abstract interface for in-memory layouts of multidimensional arrays.

This is the reproduction of the paper's Section III-C "Accessing Memory"
library: every layout exposes a uniform ``index(i, j, k)`` so that an
application (the bilateral filter, the raycaster, user code) is written
once and the layout is swapped transparently.  On top of the paper's API
we add vectorized index computation (``index_array``: numpy arrays of
coordinates in, one array of linear indices out), inverse mapping, and
buffer sizing, which the simulator and the analysis tooling need.

``index`` / ``index_array`` are the canonical entry points.  ``index``
is deliberately unchecked (it sits inside the kernels' hot loops); use
:meth:`Layout.check_bounds` first when coordinates come from outside.
The paper-named ``get_index`` shim (bounds check + delegate) went
through a deprecation cycle and has been removed; the ``repro check``
rule RPC103 keeps any call site from creeping back in.

Coordinate convention
---------------------
``(i, j, k)`` indexes ``(x, y, z)`` with **x the fastest-varying axis in
array order**, exactly as in the paper ("A[i, j] and A[i + 1, j] are
adjacent in physical memory").  ``shape`` is given as ``(nx, ny, nz)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["Layout", "Layout2D", "validate_shape", "as_index_arrays",
           "coord_dtype"]


def validate_shape(shape: Sequence[int], ndim: int) -> Tuple[int, ...]:
    """Validate and normalize an ``ndim``-dimensional grid shape."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != ndim:
        raise ValueError(f"expected {ndim}-D shape, got {shape!r}")
    if any(s <= 0 for s in shape):
        raise ValueError(f"shape entries must be positive, got {shape!r}")
    return shape


def as_index_arrays(*coords) -> tuple:
    """Coerce coordinate inputs to broadcast-compatible int64 arrays."""
    arrays = [np.asarray(c, dtype=np.int64) for c in coords]
    return tuple(np.broadcast_arrays(*arrays)) if len(arrays) > 1 else tuple(arrays)


def coord_dtype(shape: Sequence[int], margin: int = 0):
    """int16 when every coordinate of ``shape``, widened by ``margin`` on
    both sides, fits in it, else int32: the type kernels keep voxel
    coordinates in between their traversal and its addressing."""
    return np.int16 if max(shape) + margin <= 1 << 15 else np.int32


class Layout(ABC):
    """A bijection from 3-D grid coordinates to linear buffer offsets.

    Subclasses define the mapping; this base class provides bounds
    checking, iteration in curve order, and generic (slow) fallbacks.

    Attributes
    ----------
    shape : tuple of int
        Logical grid extent ``(nx, ny, nz)``.
    buffer_size : int
        Number of elements the backing buffer must hold.  For layouts
        built on recursive subdivision this exceeds ``nx*ny*nz`` unless
        the shape is a power-of-two cube (the paper's noted limitation).
    """

    #: short registry name, overridden by subclasses
    name: str = "abstract"

    def __init__(self, shape: Sequence[int]):
        self.shape = validate_shape(shape, 3)

    # -- required interface -------------------------------------------------

    @property
    @abstractmethod
    def buffer_size(self) -> int:
        """Number of elements required in the backing linear buffer."""

    @abstractmethod
    def index(self, i: int, j: int, k: int) -> int:
        """Linear offset of grid point ``(i, j, k)`` (scalar, unchecked)."""

    @abstractmethod
    def index_array(self, i, j, k) -> np.ndarray:
        """Vectorized :meth:`index` over numpy coordinate arrays."""

    @abstractmethod
    def inverse(self, offset: int) -> Tuple[int, int, int]:
        """Grid coordinates stored at linear ``offset`` (scalar)."""

    # -- provided helpers ----------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of logical grid points ``nx*ny*nz``."""
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def padding_overhead(self) -> float:
        """Fraction of buffer wasted on padding: ``buffer/points - 1``."""
        return self.buffer_size / self.n_points - 1.0

    def check_bounds(self, i: int, j: int, k: int) -> None:
        """Raise :class:`IndexError` unless ``(i, j, k)`` is on the grid."""
        nx, ny, nz = self.shape
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise IndexError(f"({i}, {j}, {k}) out of bounds for shape {self.shape}")

    def inverse_array(self, offsets) -> tuple:
        """Vectorized :meth:`inverse`; generic scalar-loop fallback."""
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        out = np.empty((3, offsets.size), dtype=np.int64)
        for n, off in enumerate(offsets):
            out[:, n] = self.inverse(int(off))
        return out[0], out[1], out[2]

    def iter_curve(self) -> Iterable[Tuple[int, int, int]]:
        """Yield grid coordinates in increasing buffer-offset order.

        Offsets that are padding (no grid point maps there) are skipped.
        Generic implementation sorts all grid points by offset; subclasses
        may override with something cheaper.
        """
        i, j, k = np.meshgrid(
            np.arange(self.shape[0]),
            np.arange(self.shape[1]),
            np.arange(self.shape[2]),
            indexing="ij",
        )
        i, j, k = i.ravel(), j.ravel(), k.ravel()
        order = np.argsort(self.index_array(i, j, k), kind="stable")
        for n in order:
            yield int(i[n]), int(j[n]), int(k[n])

    def offsets_for_all(self) -> np.ndarray:
        """Offsets of all grid points in ``(i fastest, then j, then k)`` scan order."""
        nx, ny, nz = self.shape
        k, j, i = np.meshgrid(
            np.arange(nz), np.arange(ny), np.arange(nx), indexing="ij"
        )
        return self.index_array(i.ravel(), j.ravel(), k.ravel())

    def check_bijective(self) -> bool:
        """Exhaustively verify the layout maps grid points 1:1 into the buffer.

        Intended for tests and small shapes; cost is O(n_points log n_points).
        """
        offs = self.offsets_for_all()
        if offs.min() < 0 or offs.max() >= self.buffer_size:
            return False
        return np.unique(offs).size == offs.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape})"


class Layout2D(ABC):
    """2-D analogue of :class:`Layout`, used for image-space structures.

    The paper's kernels are 3-D, but the tile scheduler and the locality
    illustrations (Figure 1 is a 2-D example) use 2-D curves.
    """

    name: str = "abstract2d"

    def __init__(self, shape: Sequence[int]):
        self.shape = validate_shape(shape, 2)

    @property
    @abstractmethod
    def buffer_size(self) -> int:
        """Number of elements required in the backing linear buffer."""

    @abstractmethod
    def index(self, i: int, j: int) -> int:
        """Linear offset of grid point ``(i, j)`` (scalar, unchecked)."""

    @abstractmethod
    def index_array(self, i, j) -> np.ndarray:
        """Vectorized :meth:`index`."""

    @abstractmethod
    def inverse(self, offset: int) -> Tuple[int, int]:
        """Grid coordinates stored at linear ``offset``."""

    @property
    def n_points(self) -> int:
        """Number of logical grid points ``nx*ny``."""
        return self.shape[0] * self.shape[1]

    def check_bounds(self, i: int, j: int) -> None:
        """Raise :class:`IndexError` unless ``(i, j)`` is on the grid."""
        nx, ny = self.shape
        if not (0 <= i < nx and 0 <= j < ny):
            raise IndexError(f"({i}, {j}) out of bounds for shape {self.shape}")

    def check_bijective(self) -> bool:
        """Exhaustively verify 1:1 mapping of grid points into the buffer."""
        nx, ny = self.shape
        j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
        offs = self.index_array(i.ravel(), j.ravel())
        if offs.min() < 0 or offs.max() >= self.buffer_size:
            return False
        return np.unique(offs).size == offs.size

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(shape={self.shape})"
