#!/usr/bin/env python3
"""Scenario 3 — *why* Z-order wins: reuse distance, strides, working sets.

Uses the analysis toolkit to dissect one against-the-grain bilateral
pencil under each layout:

* stride spectrum — how far apart consecutive loads land;
* reuse-distance histogram → miss-ratio curve — the hit rate a cache of
  ANY capacity would achieve on the stream;
* Denning working-set curve — how many lines the stream wants resident.

Run:  python examples/locality_analysis.py
"""

import numpy as np

import _bootstrap  # noqa: F401  (sys.path fallback for uninstalled checkouts)

from repro.analysis import (
    miss_ratio_curve,
    reuse_distance_histogram,
    stride_spectrum,
    working_set_curve,
)
from repro.core import Grid, make_layout
from repro.data import mri_phantom
from repro.kernels import BilateralFilter3D, BilateralSpec
from repro.memsim import AddressSpace
from repro.parallel import Pencil

SHAPE = (32, 32, 32)


def pencil_stream(layout_name: str) -> np.ndarray:
    """Line-id stream of one depth pencil, zyx stencil order, r3."""
    dense = mri_phantom(SHAPE, noise=0.0)
    grid = Grid.from_dense(dense, make_layout(layout_name, SHAPE))
    filt = BilateralFilter3D(BilateralSpec(radius=2, stencil_order="zyx"))
    space = AddressSpace(64)
    trace = filt.pencil_trace(grid, Pencil(axis=2, fixed=(16, 16)), space)
    return trace.lines - space.base_of(grid) // 64


def main() -> None:
    streams = {name: pencil_stream(name) for name in ("array", "morton")}

    print("=== stride spectrum (consecutive line-id deltas) ===")
    print(f"{'layout':>8} {'same':>7} {'unit':>7} {'line':>7} "
          f"{'near':>7} {'far':>7}")
    for name, lines in streams.items():
        s = stride_spectrum(lines, line_elems=2, near_elems=64)
        print(f"{name:>8} {s.same:>7.2f} {s.unit:>7.2f} {s.line:>7.2f} "
              f"{s.near:>7.2f} {s.far:>7.2f}")

    print("\n=== miss-ratio curve (fully associative LRU, by capacity) ===")
    capacities = [4, 16, 64, 256, 1024]
    header = "".join(f"{c:>9}" for c in capacities)
    print(f"{'layout':>8}{header}   (capacity in 64B lines)")
    curves = {}
    for name, lines in streams.items():
        hist = reuse_distance_histogram(lines)
        curves[name] = miss_ratio_curve(hist, capacities)
        row = "".join(f"{m:>9.3f}" for m in curves[name])
        print(f"{name:>8}{row}")
    # the crossover: find the smallest capacity where morton's miss ratio
    # beats array's by 2x
    for c, ma, mm in zip(capacities, curves["array"], curves["morton"]):
        if mm > 0 and ma / mm >= 2:
            print(f"-> at {c} lines of cache, array order misses "
                  f"{ma / mm:.1f}x more often than Z-order")
            break

    print("\n=== working-set curve (avg distinct lines per window) ===")
    windows = [16, 64, 256, 1024]
    print(f"{'layout':>8}" + "".join(f"{w:>9}" for w in windows))
    for name, lines in streams.items():
        ws = working_set_curve(lines, windows)
        print(f"{name:>8}" + "".join(f"{ws[w]:>9.1f}" for w in windows))
    print("\nsmaller working sets fit smaller caches — that is the whole "
          "paper in one number.")


if __name__ == "__main__":
    main()
