"""Experiment configuration for the per-figure studies.

A *cell* is one measurement: one (kernel, layout, platform, concurrency,
parameter) combination, corresponding to a single number in one of the
paper's figures.  Configs carry the paper parameters plus the sampling
knobs that make simulation tractable (see DESIGN.md §2 "Sampling"):

* ``pencils_per_thread`` / ``tiles_per_thread`` — simulate only the
  first N work items of each thread and extrapolate counters/runtime by
  the omitted fraction (exact for d_s ratios, shape-preserving for
  absolute numbers, since same-orientation items have statistically
  identical streams);
* ``ray_step`` — subsample rays within a tile by this stride in both
  image directions (counters extrapolate by the rays actually cast,
  ``ceil(w/ray_step) * ceil(h/ray_step)`` per tile);
* ``sample_cores`` — on platforms with no cache shared across cores
  (the MIC), simulate only this many cores' worth of threads and
  extrapolate; cross-core independence makes this exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..memsim.hierarchy import PlatformSpec
from ..memsim.platforms import scaled_ivybridge, scaled_mic

__all__ = [
    "BilateralCell",
    "VolrendCell",
    "IVYBRIDGE_CONCURRENCIES",
    "MIC_CONCURRENCIES",
    "PAPER_BILATERAL_ROWS",
    "default_ivybridge",
    "default_mic",
]

#: The paper's concurrency sweeps (Section IV-B5).
IVYBRIDGE_CONCURRENCIES = (2, 4, 6, 8, 10, 12, 18, 24)
MIC_CONCURRENCIES = (59, 118, 177, 236)

#: Figure 2/3 row definitions: (stencil label, pencil, stencil order).
PAPER_BILATERAL_ROWS = (
    ("r1", "px", "xyz"),
    ("r1", "pz", "zyx"),
    ("r3", "px", "xyz"),
    ("r3", "pz", "zyx"),
    ("r5", "px", "xyz"),
    ("r5", "pz", "zyx"),
)


def default_ivybridge(scale: int = 64) -> PlatformSpec:
    """The harness default Ivy Bridge model (scaled for 64³ volumes)."""
    return scaled_ivybridge(scale)


def default_mic(scale: int = 64) -> PlatformSpec:
    """The harness default MIC model (scaled for 64³ volumes)."""
    return scaled_mic(scale)


@dataclass(frozen=True)
class BilateralCell:
    """One bilateral-filter measurement cell (Figures 2 and 3).

    ``pencil`` and ``stencil_order`` follow the paper's row labels;
    ``stencil`` is one of the paper's size labels ("r1"/"r3"/"r5") or an
    integer radius.
    """

    platform: PlatformSpec
    layout: str = "array"
    n_threads: int = 2
    shape: Tuple[int, int, int] = (64, 64, 64)
    stencil: str = "r1"
    pencil: str = "px"
    stencil_order: str = "xyz"
    #: pencil enumeration order handed to the round-robin: "scan" (the
    #: paper's), or "morton"/"hilbert" curve orders (ablation A8)
    pencil_order: str = "scan"
    #: include output-voxel stores in the trace (write-allocate traffic;
    #: ablation A14) — the paper's counters are read-centric, so the
    #: default matches the paper
    trace_writes: bool = False
    sigma_spatial: float = 1.5
    sigma_range: float = 0.2
    dataset: str = "mri"
    seed: int = 0
    affinity: str = "compact"
    usable_cores: Optional[int] = None
    pencils_per_thread: int = 2
    sample_cores: Optional[int] = None
    quantum: int = 256
    cpi_compute: float = 1.0
    #: simulation backend (see :class:`~repro.memsim.engine.SimulationEngine`):
    #: "auto" prices LRU hierarchies from stack distances and replays the
    #: rest, "scalar" always replays; both bit-for-bit equivalent
    backend: str = "auto"

    def with_layout(self, layout: str) -> "BilateralCell":
        """Same cell, different layout (the a-vs-z pairing)."""
        return replace(self, layout=layout)


@dataclass(frozen=True)
class VolrendCell:
    """One volume-rendering measurement cell (Figures 4, 5 and 6)."""

    platform: PlatformSpec
    layout: str = "array"
    n_threads: int = 2
    shape: Tuple[int, int, int] = (64, 64, 64)
    viewpoint: int = 0
    n_viewpoints: int = 8
    image_size: int = 256
    tile_size: int = 32
    step: float = 1.0
    sampler: str = "nearest"
    #: "perspective" (the paper's measured config: per-ray unique slopes)
    #: or "orthographic" (the fully structured limit — ablation A9)
    projection: str = "perspective"
    #: brick edge for min–max empty-space skipping (None = off, the
    #: paper's measured configuration; ablation A15)
    skip_brick: Optional[int] = None
    #: transfer function preset: "warm" (default), "grayscale", or
    #: "sparse" (zero opacity below 0.4 — what skipping needs to bite)
    transfer: str = "warm"
    dataset: str = "combustion"
    seed: int = 0
    affinity: str = "compact"
    usable_cores: Optional[int] = None
    tiles_per_thread: int = 1
    ray_step: int = 2
    sample_cores: Optional[int] = None
    quantum: int = 256
    cpi_compute: float = 4.0
    early_termination: Optional[float] = None
    #: simulation backend (see :class:`~repro.memsim.engine.SimulationEngine`):
    #: "auto" prices LRU hierarchies from stack distances and replays the
    #: rest, "scalar" always replays; both bit-for-bit equivalent
    backend: str = "auto"

    def with_layout(self, layout: str) -> "VolrendCell":
        """Same cell, different layout (the a-vs-z pairing)."""
        return replace(self, layout=layout)

    def with_viewpoint(self, viewpoint: int) -> "VolrendCell":
        """Same cell, different orbit position."""
        return replace(self, viewpoint=viewpoint)
