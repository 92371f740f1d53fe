"""Figure 2 and Figure 3 drivers: the bilateral-filter layout study.

Figure 2 (Ivy Bridge): rows are (stencil size, pencil, iteration order)
combinations {r1, r3, r5} × {px xyz, pz zyx}; columns are thread counts
{2, 4, 6, 8, 10, 12, 18, 24}; cells are d_s for runtime and for
PAPI_L3_TCA, Z-order vs array-order.

Figure 3 (MIC): the same rows over thread counts {59, 118, 177, 236}
with L2_DATA_READ_MISS_MEM_FILL as the counter.

The defaults are the committed settings: ``figure2()`` and ``figure3()``
regenerate ``results/fig2_*.txt`` and ``results/fig3_*.txt``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .config import (
    IVYBRIDGE_CONCURRENCIES,
    MIC_CONCURRENCIES,
    PAPER_BILATERAL_ROWS,
    BilateralCell,
    default_ivybridge,
    default_mic,
)
from .report import DsFigure
from .sweep import ds_figure

__all__ = ["figure2", "figure3"]


def _labelled(rows: Sequence[Tuple[str, str, str]]):
    """``ds_figure`` rows for (stencil, pencil, order) triples."""
    return [(f"{stencil} {pencil} {order}",
             {"stencil": stencil, "pencil": pencil, "stencil_order": order})
            for stencil, pencil, order in rows]


def figure2(shape: Tuple[int, int, int] = (64, 64, 64),
            scale: int = 64,
            concurrencies: Sequence[int] = IVYBRIDGE_CONCURRENCIES,
            rows: Sequence[Tuple[str, str, str]] = PAPER_BILATERAL_ROWS,
            pencils_per_thread: int = 2,
            **run) -> DsFigure:
    """Reproduce Figure 2: Bilateral 3D on Ivy Bridge, runtime + L3 TCA.

    ``run`` (``workers`` and the resilience options ``timeout``,
    ``retry``, ``checkpoint``, ``resume``, ``govern``) forwards to
    :func:`~repro.experiments.sweep.ds_figure`.
    """
    base = BilateralCell(
        platform=default_ivybridge(scale),
        shape=shape,
        affinity="compact",
        pencils_per_thread=pencils_per_thread,
    )
    return ds_figure(
        base, _labelled(rows), concurrencies, "PAPI_L3_TCA",
        f"Fig 2 | Bilat3d, {shape[0]}^3, IvyBridge: Z- vs A-order", **run)


def figure3(shape: Tuple[int, int, int] = (64, 64, 64),
            scale: int = 64,
            concurrencies: Sequence[int] = MIC_CONCURRENCIES,
            rows: Sequence[Tuple[str, str, str]] = PAPER_BILATERAL_ROWS,
            pencils_per_thread: int = 2,
            sample_cores: int = 8,
            **run) -> DsFigure:
    """Reproduce Figure 3: Bilateral 3D on MIC, runtime + L2 read miss.

    Threads spread 1–4 per core over 59 usable cores (the paper reserves
    one core for the OS); only ``sample_cores`` cores are simulated —
    exact for this platform since no cache spans cores.  ``run`` as in
    :func:`figure2`.
    """
    base = BilateralCell(
        platform=default_mic(scale),
        shape=shape,
        affinity="balanced",
        usable_cores=59,
        pencils_per_thread=pencils_per_thread,
        sample_cores=sample_cores,
    )
    return ds_figure(
        base, _labelled(rows), concurrencies, "L2_DATA_READ_MISS_MEM_FILL",
        f"Fig 3 | Bilat3d, {shape[0]}^3, MIC: Z- vs A-order", **run)
