"""The figure-cell catalog the ``figcells`` workload samples from.

Cells are the paper-figure grids at the committed settings of
``benchmarks/test_fig{2,3,5,6}_*.py``: 64^3 volumes on the scale-64
platforms.  Bilateral figures keep rows r1 and r3 only; one r5 pz cell
costs as much host time as ~40 ordinary cells, so a handful of them
would decide a run's throughput on their own.

Every cell carries the benchmark's own label, ``<figure>/<row>/<threads>/<layout>``
(``fig2/r3-pz-zyx/24/morton``, ``fig5/vp2/8/array``), which keys the
stored reference.  Cells come in (array, morton) pairs, the two sides
of the paper's d_s = (a - z) / z.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple, Union

from repro.experiments import (
    IVYBRIDGE_CONCURRENCIES,
    MIC_CONCURRENCIES,
    BilateralCell,
    VolrendCell,
    default_ivybridge,
    default_mic,
)

Cell = Union[BilateralCell, VolrendCell]

SHAPE = (64, 64, 64)
SCALE = 64
LAYOUTS = ("array", "morton")
BILATERAL_ROWS = (("r1", "px", "xyz"), ("r1", "pz", "zyx"),
                  ("r3", "px", "xyz"), ("r3", "pz", "zyx"))
VIEWPOINTS = tuple(range(8))


@dataclass(frozen=True)
class Figure:
    """One paper figure: its base cell, columns and committed table."""
    name: str
    kernel: str                 # "bilateral" or "volrend"
    base: Cell
    concurrencies: Tuple[int, ...]
    counter: str
    title: str
    result_file: str

    @property
    def rows(self) -> List[str]:
        """Row keys as they appear in cell labels."""
        if self.kernel == "bilateral":
            return ["-".join(row) for row in BILATERAL_ROWS]
        return [f"vp{v}" for v in VIEWPOINTS]

    def cell(self, row: str, threads: int, layout: str) -> Cell:
        if self.kernel == "bilateral":
            stencil, pencil, order = row.split("-")
            return replace(self.base, stencil=stencil, pencil=pencil,
                           stencil_order=order, n_threads=threads,
                           layout=layout)
        return replace(self.base, viewpoint=int(row[2:]),
                       n_threads=threads, layout=layout)


def figures() -> Dict[str, Figure]:
    """The four figures, built exactly as the committed benches build them."""
    ivy, mic = default_ivybridge(SCALE), default_mic(SCALE)
    side = SHAPE[0]
    return {f.name: f for f in (
        Figure("fig2", "bilateral",
               BilateralCell(platform=ivy, shape=SHAPE, affinity="compact",
                             pencils_per_thread=2),
               IVYBRIDGE_CONCURRENCIES, "PAPI_L3_TCA",
               f"Fig 2 | Bilat3d, {side}^3, IvyBridge: Z- vs A-order",
               "fig2_bilateral_ivybridge.txt"),
        Figure("fig3", "bilateral",
               BilateralCell(platform=mic, shape=SHAPE, affinity="balanced",
                             usable_cores=59, pencils_per_thread=2,
                             sample_cores=8),
               MIC_CONCURRENCIES, "L2_DATA_READ_MISS_MEM_FILL",
               f"Fig 3 | Bilat3d, {side}^3, MIC: Z- vs A-order",
               "fig3_bilateral_mic.txt"),
        Figure("fig5", "volrend",
               VolrendCell(platform=ivy, shape=SHAPE, image_size=256,
                           affinity="compact", tiles_per_thread=1,
                           ray_step=2),
               IVYBRIDGE_CONCURRENCIES, "PAPI_L3_TCA",
               f"Fig 5 | Volrend, {side}^3, IvyBridge: Z- vs A-order",
               "fig5_volrend_ivybridge.txt"),
        Figure("fig6", "volrend",
               VolrendCell(platform=mic, shape=SHAPE, image_size=512,
                           affinity="balanced", usable_cores=59,
                           tiles_per_thread=1, ray_step=2, sample_cores=8),
               MIC_CONCURRENCIES, "L2_DATA_READ_MISS_MEM_FILL",
               f"Fig 6 | Volrend, {side}^3, MIC: Z- vs A-order",
               "fig6_volrend_mic.txt"),
    )}


def pair_keys(figs: Dict[str, Figure]) -> List[str]:
    """Every ``<figure>/<row>/<threads>`` pair key, in figure order."""
    return [f"{f.name}/{row}/{t}" for f in figs.values()
            for row in f.rows for t in f.concurrencies]


def cell_for(figs: Dict[str, Figure], label: str) -> Cell:
    """The cell a ``<figure>/<row>/<threads>/<layout>`` label names."""
    fig, row, threads, layout = label.split("/")
    return figs[fig].cell(row, int(threads), layout)
