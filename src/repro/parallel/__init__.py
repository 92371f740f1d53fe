"""Simulated shared-memory parallelism: decomposition, scheduling, affinity.

The pthreads substitute: work is decomposed into pencils (filter) or
image tiles (renderer), assigned to simulated threads by a static
round-robin or an emulated dynamic worker pool, and threads are pinned
to cores with compact/scatter/balanced maps so they share exactly the
caches their hardware placement implies.
"""

from .affinity import balanced_map, compact_map, make_affinity, scatter_map
from .pencil import (
    PENCIL_AXES,
    PENCIL_ORDERS,
    Pencil,
    enumerate_pencils,
    pencil_coords,
    round_robin_pencils,
)
from .scheduler import assignment_balance, dynamic_worker_pool, static_round_robin
from .threads import build_thread_works
from .tiles import Tile, enumerate_tiles, tile_pixels

__all__ = [
    "PENCIL_AXES",
    "PENCIL_ORDERS",
    "Pencil",
    "Tile",
    "assignment_balance",
    "balanced_map",
    "build_thread_works",
    "compact_map",
    "dynamic_worker_pool",
    "enumerate_pencils",
    "enumerate_tiles",
    "make_affinity",
    "pencil_coords",
    "round_robin_pencils",
    "scatter_map",
    "static_round_robin",
    "tile_pixels",
]
