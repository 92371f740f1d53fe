"""Exact LRU reuse-distance (stack-distance) analysis.

The reuse distance of an access is the number of *distinct* lines
touched since the previous access to the same line; under a fully
associative LRU cache of capacity C lines, an access hits iff its reuse
distance is < C.  The histogram therefore characterizes a stream's
cache behaviour for *every* capacity at once — the cleanest way to see
why a Z-order stream outperforms an array-order stream for neighborhood
workloads.

The histogram comes from the single-pass numpy engine in
:mod:`repro.memsim.stackdist`, which also prices the simulator's LRU
caches, so multi-million-access traces take one vectorized pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Union

import numpy as np

from ..memsim.stackdist import stack_distance_histogram

__all__ = [
    "reuse_distance_histogram",
    "miss_ratio_curve",
    "INFINITE_DISTANCE",
]

#: Histogram key for cold (first-touch) accesses.
INFINITE_DISTANCE = -1


def reuse_distance_histogram(lines: Union[np.ndarray, Iterable[int]]
                             ) -> Dict[int, int]:
    """Histogram {reuse distance: count}; cold misses keyed by −1.

    ``lines`` may be any iterable of ints or — preferred for real traces
    — an integer ndarray, which is analyzed without copying the stream.
    """
    if not isinstance(lines, np.ndarray):
        lines = list(lines)  # np.asarray does not iterate a generator
    return stack_distance_histogram(lines).as_dict()


def miss_ratio_curve(hist: Dict[int, int],
                     capacities: Sequence[int]) -> np.ndarray:
    """Fully-associative-LRU miss ratio at each capacity (in lines).

    An access with reuse distance d misses a cache of capacity c iff
    d >= c (cold accesses always miss).  One sorted cumulative count
    answers every capacity by binary search — O((|hist| + |capacities|)
    log |hist|) instead of rescanning the histogram per capacity.
    """
    total = sum(hist.values())
    if total == 0:
        return np.zeros(len(capacities))
    finite = sorted(d for d in hist if d != INFINITE_DISTANCE)
    distances = np.array(finite, dtype=np.int64)
    counts = np.array([hist[d] for d in finite], dtype=np.int64)
    cold = hist.get(INFINITE_DISTANCE, 0)
    caps = np.asarray(list(capacities), dtype=np.int64)
    if counts.size == 0:  # all accesses cold: every capacity misses alike
        return np.full(caps.shape, cold / total, dtype=np.float64)
    cum = np.cumsum(counts)
    n_finite = int(cum[-1])
    idx = np.searchsorted(distances, caps, side="left")
    below = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0)
    return (n_finite - below + cold) / total
