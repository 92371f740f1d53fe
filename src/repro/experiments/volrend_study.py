"""Figure 4, 5 and 6 drivers: the raycasting layout study.

Figure 4 (Ivy Bridge, one configuration): absolute runtime and
PAPI_L3_TCA for array- and Z-order over the 8 orbit viewpoints —
array-order is fastest at viewpoints 0 and 4 (rays ∥ x) and degrades
in between, while Z-order stays flat.

Figure 5 (Ivy Bridge): d_s matrices, rows = viewpoints 0–7, columns =
thread counts {2 … 24}.

Figure 6 (MIC): the same over {59, 118, 177, 236} threads with
L2_DATA_READ_MISS_MEM_FILL.

The defaults are the committed settings: ``figure4()`` … ``figure6()``
regenerate ``results/fig4_*.txt`` … ``results/fig6_*.txt``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .config import (
    IVYBRIDGE_CONCURRENCIES,
    MIC_CONCURRENCIES,
    VolrendCell,
    default_ivybridge,
    default_mic,
)
from .report import DsFigure, SeriesFigure
from .sweep import ds_figure, run_layout_pairs

__all__ = ["figure4", "figure5", "figure6"]


def figure4(shape: Tuple[int, int, int] = (64, 64, 64),
            scale: int = 64,
            n_threads: int = 12,
            image_size: int = 256,
            viewpoints: Sequence[int] = tuple(range(8)),
            tiles_per_thread: int = 1,
            ray_step: int = 2,
            **run) -> SeriesFigure:
    """Reproduce Figure 4: absolute runtime & PAPI_L3_TCA vs viewpoint.

    ``run`` (``workers`` and the resilience options) forwards to
    :func:`~repro.experiments.sweep.run_layout_pairs`.
    """
    base = VolrendCell(
        platform=default_ivybridge(scale),
        shape=shape,
        n_threads=n_threads,
        image_size=image_size,
        affinity="compact",
        tiles_per_thread=tiles_per_thread,
        ray_step=ray_step,
    )
    pairs = run_layout_pairs([base.with_viewpoint(v) for v in viewpoints],
                             **run)
    counter = "PAPI_L3_TCA"
    return SeriesFigure(
        title=(f"Fig 4 | Volrend, {shape[0]}^3, IvyBridge, "
               f"{n_threads} threads: absolute runtime & {counter}"),
        counter_name=counter,
        x_label="viewpoint",
        x_values=list(viewpoints),
        runtime_a=np.array([a.runtime_seconds for a, _ in pairs]),
        runtime_z=np.array([z.runtime_seconds for _, z in pairs]),
        counter_a=np.array([a.counters[counter] for a, _ in pairs]),
        counter_z=np.array([z.counters[counter] for _, z in pairs]),
    )


def _viewpoint_rows(viewpoints: Sequence[int]):
    """``ds_figure`` rows for orbit viewpoints, labelled by number."""
    return [(str(v), {"viewpoint": v}) for v in viewpoints]


def figure5(shape: Tuple[int, int, int] = (64, 64, 64),
            scale: int = 64,
            concurrencies: Sequence[int] = IVYBRIDGE_CONCURRENCIES,
            viewpoints: Sequence[int] = tuple(range(8)),
            image_size: int = 256,
            tiles_per_thread: int = 1,
            ray_step: int = 2,
            **run) -> DsFigure:
    """Reproduce Figure 5: Volrend on Ivy Bridge, d_s matrices.

    ``run`` (``workers`` and the resilience options) forwards to
    :func:`~repro.experiments.sweep.ds_figure`.
    """
    base = VolrendCell(
        platform=default_ivybridge(scale),
        shape=shape,
        image_size=image_size,
        affinity="compact",
        tiles_per_thread=tiles_per_thread,
        ray_step=ray_step,
    )
    return ds_figure(
        base, _viewpoint_rows(viewpoints), concurrencies, "PAPI_L3_TCA",
        f"Fig 5 | Volrend, {shape[0]}^3, IvyBridge: Z- vs A-order", **run)


def figure6(shape: Tuple[int, int, int] = (64, 64, 64),
            scale: int = 64,
            concurrencies: Sequence[int] = MIC_CONCURRENCIES,
            viewpoints: Sequence[int] = tuple(range(8)),
            image_size: int = 512,
            tiles_per_thread: int = 1,
            ray_step: int = 2,
            sample_cores: int = 8,
            **run) -> DsFigure:
    """Reproduce Figure 6: Volrend on MIC, d_s matrices.

    The image is 512² so the tile pool (256 tiles) exceeds the largest
    thread count (236), as a worker-pool renderer requires.  ``run`` as
    in :func:`figure5`.
    """
    base = VolrendCell(
        platform=default_mic(scale),
        shape=shape,
        image_size=image_size,
        affinity="balanced",
        usable_cores=59,
        tiles_per_thread=tiles_per_thread,
        ray_step=ray_step,
        sample_cores=sample_cores,
    )
    return ds_figure(
        base, _viewpoint_rows(viewpoints), concurrencies,
        "L2_DATA_READ_MISS_MEM_FILL",
        f"Fig 6 | Volrend, {shape[0]}^3, MIC: Z- vs A-order", **run)
