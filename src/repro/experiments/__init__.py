"""Per-figure experiment harnesses (see DESIGN.md experiment index)."""

from ..resilience import CheckpointStore, RetryPolicy
from .bilateral_study import figure2, figure3
from .config import (
    IVYBRIDGE_CONCURRENCIES,
    MIC_CONCURRENCIES,
    PAPER_BILATERAL_ROWS,
    BilateralCell,
    VolrendCell,
    default_ivybridge,
    default_mic,
)
from .harness import (
    CellResult,
    PreparedCell,
    clear_caches,
    prepare_cell,
    run_bilateral_cell,
    run_volrend_cell,
    simulate_prepared,
)
from .parallel import (
    CellFailure,
    CellRunError,
    resolve_workers,
    run_cell,
    run_cells_parallel,
)
from .report import DsFigure, SeriesFigure, render_ds_figure, render_series_figure
from .sweep import (
    capacity_sweep,
    compare_layouts,
    ds_figure,
    rows_to_csv,
    run_layout_pairs,
    sweep_cells,
)
from .volrend_study import figure4, figure5, figure6

__all__ = [
    "IVYBRIDGE_CONCURRENCIES",
    "MIC_CONCURRENCIES",
    "PAPER_BILATERAL_ROWS",
    "BilateralCell",
    "CellFailure",
    "CellResult",
    "CellRunError",
    "CheckpointStore",
    "RetryPolicy",
    "DsFigure",
    "PreparedCell",
    "SeriesFigure",
    "VolrendCell",
    "capacity_sweep",
    "clear_caches",
    "compare_layouts",
    "default_ivybridge",
    "default_mic",
    "ds_figure",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "render_ds_figure",
    "render_series_figure",
    "prepare_cell",
    "resolve_workers",
    "rows_to_csv",
    "run_bilateral_cell",
    "simulate_prepared",
    "run_cell",
    "run_cells_parallel",
    "run_layout_pairs",
    "sweep_cells",
    "run_volrend_cell",
]
