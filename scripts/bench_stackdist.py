#!/usr/bin/env python3
"""Time single-pass stack-distance pricing against per-capacity replay.

A capacity sweep over fully-associative LRU caches prices every point
from ONE reuse-distance pass: histogram pricing computes the histogram
once and reads each capacity's miss count off the cumulative curve,
where replay must push the whole stream through a separate cache per
capacity.  This benchmark runs a 64^3 bilateral-filter r3 pencil stream
(the acceptance workload) across a >=8-point capacity sweep both ways,
checks the miss counts agree bit-for-bit, and gates on the single-pass
path being at least 10x faster than the summed per-capacity replays.

Run:  python scripts/bench_stackdist.py [--shape 64] [--repeat 3]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.grid import Grid  # noqa: E402
from repro.core.registry import make_layout  # noqa: E402
from repro.data.synthetic import mri_phantom  # noqa: E402
from repro.kernels.bilateral import BilateralFilter3D, BilateralSpec  # noqa: E402
from repro.memsim.address import AddressSpace  # noqa: E402
from repro.memsim.cache import Cache, CacheConfig  # noqa: E402
from repro.memsim.stackdist import stack_distance_histogram  # noqa: E402
from repro.parallel.pencil import Pencil  # noqa: E402

CAPACITIES = [64, 128, 256, 512, 1024, 2048, 4096, 8192]  # lines
GATE = 10.0


def kernel_stream(shape: tuple) -> np.ndarray:
    """Line-address stream of r3 zyx pencils through a Morton grid."""
    dense = mri_phantom(shape, noise=0.05, seed=0)
    grid = Grid.from_dense(dense, make_layout("morton", shape))
    filt = BilateralFilter3D(BilateralSpec(radius=3, stencil_order="zyx"))
    space = AddressSpace(64)
    mid = (shape[0] // 2, shape[1] // 2)
    chunks = [filt.pencil_trace(grid, Pencil(axis=2, fixed=(mid[0] + d, mid[1])),
                                space)
              for d in range(4)]
    return np.concatenate([c.lines for c in chunks])


def replay_misses(lines: np.ndarray, capacity: int) -> int:
    """Miss count from one replay through a FA-LRU cache."""
    cfg = CacheConfig("FA", capacity * 64, ways=capacity)
    cache = Cache(cfg, seed=0)
    cache.access_lines(lines)
    return cache.stats.misses


def time_replay_sweep(lines: np.ndarray, repeat: int):
    """Best-of-`repeat` total time to replay every capacity separately."""
    best, misses = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        misses = [replay_misses(lines, c) for c in CAPACITIES]
        best = min(best, time.perf_counter() - t0)
    return best, np.array(misses, dtype=np.int64)


def time_stack_sweep(lines: np.ndarray, repeat: int):
    """Best-of-`repeat` time for one histogram pass pricing every point."""
    best, misses = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        hist = stack_distance_histogram(lines)
        misses = hist.miss_counts(CAPACITIES)
        best = min(best, time.perf_counter() - t0)
    return best, misses


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shape", type=int, default=64)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    shape = (args.shape,) * 3

    print(f"generating bilateral r3 stream at {shape} ...", file=sys.stderr)
    lines = kernel_stream(shape)
    print(f"{lines.size} line accesses, {len(CAPACITIES)}-point "
          f"capacity sweep {CAPACITIES[0]}..{CAPACITIES[-1]} lines\n")

    t_replay, m_replay = time_replay_sweep(lines, args.repeat)
    t_stack, m_stack = time_stack_sweep(lines, args.repeat)

    print(f"{'capacity':>9} {'replay misses':>14} {'stack misses':>13}")
    for c, mr, ms in zip(CAPACITIES, m_replay, m_stack):
        print(f"{c:>9} {mr:>14} {ms:>13}")
    if m_replay.tolist() != m_stack.tolist():
        print("\nFAIL: stack miss counts diverge from replay")
        return 1
    print("\nmiss counts agree bit-for-bit on every capacity")

    speedup = t_replay / t_stack
    print(f"per-capacity replay:       {t_replay * 1e3:>8.1f}ms "
          f"({len(CAPACITIES)} replays)")
    print(f"single-pass stack pricing: {t_stack * 1e3:>8.1f}ms "
          f"(1 histogram + {len(CAPACITIES)} lookups)")
    print(f"sweep speedup {speedup:.1f}x "
          f"({'PASS' if speedup >= GATE else 'BELOW'} the {GATE:.0f}x "
          f"acceptance bar)")
    return 0 if speedup >= GATE else 1


if __name__ == "__main__":
    sys.exit(main())
