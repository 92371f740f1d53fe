"""Stack-distance (Mattson) pricing: LRU caches without replaying them.

The cache replay in :mod:`repro.memsim.cache` walks the address
stream access by access.  LRU needs no walk: an access hits a ``W``-way
LRU set iff fewer than ``W`` distinct lines of its set were touched
since its previous access (Mattson et al., 1970).  This module prices
LRU caches from that rule in whole-array numpy passes, two ways:

* **histograms** — for a *fully-associative* cache, one pass computing
  every access's stack distance prices **every** capacity at once, and
  a :class:`HistogramStore` lets sweeps reuse it across geometries
  without touching the trace again;
* **the W-bounded hit test** (:func:`lru_hits`) — for one set-associative
  geometry, decides each access against its own set's ``W`` only, which
  is far cheaper than full distances; the engine prices whole
  hierarchies with it, level by level.

Algorithm
---------
Per-access stack distances fall out of two classical reductions, both
of which vectorize cleanly:

1. With ``prev[t]`` the previous position of the line accessed at
   ``t``, the window ``(prev[t], t)`` holds ``t - prev[t] - 1``
   accesses, of which the *repeats* are exactly the accesses ``j`` with
   ``prev[j] > prev[t]`` (a repeat's own previous occurrence lies
   inside the window, and ``j > prev[j] > prev[t]`` makes ``j`` land in
   the window automatically).  Hence::

       d[t] = (t - prev[t] - 1) - #{j < t : prev[j] > prev[t]}

2. The correction term is a count-of-earlier-larger over the
   (distinct) ``prev`` values in time order — inversion counting,
   done here by a bottom-up merge accumulation: ``log2(n)`` rounds,
   each one a batched stable row-sort over all current blocks (two
   sorted runs per row, which the stable sort merges in linear time)
   plus O(n) rank arithmetic.  No per-access Python anywhere.

The W-bounded hit test
----------------------
:func:`lru_hits` sorts the stream by set (stable, so each set keeps its
time order) and links every access to its line's previous occurrence,
which necessarily lies in the same set.  With ``gap`` the number of
same-set accesses between the two, an access is settled by the first
rule that applies:

1. a first touch misses;
2. ``gap < W`` hits — fewer than ``W`` accesses cannot hold ``W``
   distinct lines;
3. if the ``W`` accesses just before it are ``W`` distinct lines (a
   sliding minimum of next-occurrence positions says so) it misses;
4. otherwise a block scan walks back from the access, counting
   positions whose line does not recur before it — each is a distinct
   line of the window — until it has seen ``W`` of them (a miss) or
   covered the whole gap (a hit).  Each block is as wide as all the
   columns before it, and rows are scanned in slabs of bounded size,
   so the scan's memory stays flat however deep a window is.

Back-to-back repeats (hits that change nothing) are dropped first.
On a seed-0 round of the benchmark's figure cells rules 1–3 settle
~93% of the accesses that reach a cache or TLB, leaving ~7% to the
scan (17% at the MIC's one-set L1, 11% at its L2).  A line that is
never evicted is never re-filled, so a cold LRU set's fills into empty
ways number ``min(distinct lines, W)``; every other miss evicts.

Every step is a whole-array pass, so the pricing's cost is its number
of passes over the stream:

* keys are the lines truncated to 16 or 32 bits, which stay one key
  per line while the lines' span fits and keep the set bits while the
  sets fit; there is no pass subtracting the smallest line;
* repeats are dropped, before and after the set sort, only when one
  exists, and put back at the end with masks;
* grouping the accesses by line packs each key with its position into
  one machine word and sorts the words, several times faster than a
  stable argsort of the keys;
* each line's links (an access and its line's next access) are found
  once; ``nxt`` is scattered from them once, and rule 2 scatters its
  verdict onto every linked access at once;
* rule 3 runs only when some access is a candidate;
* scan slabs are column-major, so a block's count adds whole rows, in
  bytes while the block is narrower than 256 columns.

Validity domain
---------------
Both ways price an LRU cache **from the stream that reaches it**.  A
histogram of the raw stream therefore prices a single-level machine
only: an outer level sees the inner level's misses, and that filtered
stream scrambles recency.  Counterexample: stream ``x y x z w x``
through L1=2, L2=3 lines — the final ``x`` has raw stack distance 2
(< 3, so the raw histogram predicts an L2 hit) but L2, which saw only
``x y z w``, evicted ``x`` on ``w`` and actually misses.  The engine
therefore prices hierarchies level by level: each level's instances
run :func:`lru_hits` on exactly the accesses the levels inside them
missed, in the order the replayer would deliver them, and the TLB is
one more LRU level over the page stream.  That is exact for every
non-inclusive hierarchy of LRU caches and TLB.  Three things still
replay, and :func:`stack_ineligibility` names them: other replacement
policies (their hits do not follow the distinct-line rule), stream
prefetchers (they install lines outside the demand stream), and an
inclusive LLC (its evictions invalidate inner levels, so an inner
level's stream depends on the level outside it).  Single-level
fully-associative platforms stay on histograms
(:func:`prices_by_histogram`), which price a whole capacity sweep from
one pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .cache import CacheConfig
from .hierarchy import LevelSpec, PlatformSpec

__all__ = [
    "COLD",
    "StackDistanceHistogram",
    "stack_distances",
    "stack_distance_histogram",
    "per_thread_histograms",
    "lru_hits",
    "stack_ineligibility",
    "prices_by_histogram",
    "fully_associative_spec",
    "HistogramStore",
    "stream_key",
]

#: distance assigned to cold (first-touch) accesses, matching
#: :data:`repro.analysis.reuse.INFINITE_DISTANCE`
COLD = -1

#: bumped whenever what a histogram key covers changes
_HISTOGRAM_SCHEMA_VERSION = 1

#: most (rows x columns) cells one block-scan slab of :func:`lru_hits`
#: holds, which bounds the scan's temporaries whatever the stream
_SCAN_SLAB = 1 << 16

#: :func:`lru_hits` prices longer streams a group of sets at a time
_GROUP_LINES = 1 << 15


def _as_line_array(lines) -> np.ndarray:
    """Normalize a stream to a flat int64 ndarray without extra copies.

    Integer ndarrays pass through as (at most) a dtype-cast view chain;
    lists and other iterables are converted once.
    """
    arr = np.asarray(lines)
    if arr.dtype.kind not in "iu":
        if arr.size and not np.issubdtype(arr.dtype, np.number):
            raise TypeError(f"line stream must be integer, got {arr.dtype}")
        arr = arr.astype(np.int64)
    elif arr.dtype != np.int64:
        arr = arr.astype(np.int64)
    return arr.ravel()


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """For each position ``i``: ``#{k < i : values[k] > values[i]}``.

    ``values`` must be pairwise distinct (they are previous-occurrence
    positions here, which are distinct by construction).  Bottom-up
    merge accumulation: at block size ``s``, every element in a right
    half counts the elements of its (earlier-in-time) left half that
    exceed it, read off the element's position in the merged order.
    The rows being two sorted runs, the stable row-sort is a linear
    merge, and each round gathers the merged rows with one flat index.
    """
    m = values.size
    counts = np.zeros(m, dtype=np.int64)
    if m < 2:
        return counts
    n_pad = 1 << int(m - 1).bit_length()
    vals = np.empty(n_pad, dtype=np.int64)
    vals[:m] = values
    if n_pad > m:
        # ascending pad larger than every real value: sorts to the
        # tail, stays distinct, contributes no cross-block counts
        top = int(values.max()) + 1
        vals[m:] = np.arange(top, top + (n_pad - m), dtype=np.int64)
    src = np.arange(n_pad, dtype=np.int64)
    size = 1
    while size < n_pad:
        width = 2 * size
        order = np.argsort(vals.reshape(-1, width), kind="stable", axis=1)
        # merged position p of a row holds the element from column
        # order[p].  A right-half element, column size + j, has exactly
        # j smaller right-half siblings (its own run is sorted), so p - j
        # of the `size` left-half elements — all earlier in time — are
        # smaller and size - (p - j) = order[p] - p are greater
        cross = (order - np.arange(width)).ravel()
        flat = (order + np.arange(0, n_pad, width)[:, None]).ravel()
        vals = vals[flat]
        src = src[flat]
        right = (order >= size).ravel() & (src < m)
        # src is a permutation, so its entries are distinct: plain
        # fancy-index accumulation is safe
        counts[src[right]] += cross[right]
        size = width
    return counts


def stack_distances(lines) -> np.ndarray:
    """Per-access LRU stack distances; cold accesses get :data:`COLD`.

    The distance of an access is the number of *distinct* lines touched
    since the previous access to the same line, computed in O(n log n)
    numpy passes with no per-access Python loop (the engine behind
    :func:`repro.analysis.reuse.reuse_distance_histogram`).
    """
    arr = _as_line_array(lines)
    n = arr.size
    dist = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return dist
    # previous-occurrence index per access
    _, inv = np.unique(arr, return_inverse=True)
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = inv_sorted[1:] == inv_sorted[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    warm = np.flatnonzero(prev >= 0)
    if warm.size:
        q = prev[warm]
        repeats = _count_earlier_greater(q)
        dist[warm] = warm - q - 1 - repeats
    return dist


@dataclass(frozen=True)
class StackDistanceHistogram:
    """A stream's full stack-distance profile: prices any FA-LRU capacity.

    Attributes
    ----------
    distances : np.ndarray
        Sorted (ascending) distinct finite stack distances.
    counts : np.ndarray
        Access count per entry of ``distances``.
    cold : int
        First-touch accesses (distance ∞).  Also the number of distinct
        lines in the stream — every distinct line is cold exactly once.
    """

    distances: np.ndarray
    counts: np.ndarray
    cold: int

    def __post_init__(self):
        if self.distances.size != self.counts.size:
            raise ValueError("distances/counts length mismatch")
        if self.distances.size and np.any(np.diff(self.distances) <= 0):
            raise ValueError("distances must be sorted strictly ascending")

    @property
    def total(self) -> int:
        """Total accesses in the stream."""
        return int(self.counts.sum()) + self.cold

    @property
    def distinct_lines(self) -> int:
        """Distinct lines touched (== cold accesses)."""
        return self.cold

    def misses(self, capacity_lines: int) -> int:
        """Exact miss count of a fully-associative LRU cache of ``C`` lines."""
        return int(self.miss_counts([capacity_lines])[0])

    def miss_counts(self, capacities: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`misses` over many capacities at once.

        An access misses iff its distance ``>= C`` (cold always misses):
        one cumulative sum plus a sorted lookup per capacity.
        """
        caps = np.asarray(capacities, dtype=np.int64)
        if caps.size and np.any(caps <= 0):
            raise ValueError("capacities must be positive line counts")
        if self.counts.size == 0:  # only cold accesses (or none at all)
            return np.full(caps.shape, self.cold, dtype=np.int64)
        cum = np.cumsum(self.counts)
        finite = int(cum[-1])
        idx = np.searchsorted(self.distances, caps, side="left")
        below = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0)
        return finite - below + self.cold

    def hits(self, capacity_lines: int) -> int:
        """Exact hit count at ``capacity_lines``."""
        return self.total - self.misses(capacity_lines)

    def evictions(self, capacity_lines: int) -> int:
        """Demand evictions at ``capacity_lines``.

        Every miss inserts; the first ``min(distinct, C)`` fills land in
        empty ways (while occupancy is below ``C`` nothing has ever been
        evicted, so every resident line stays resident and all misses
        are cold).
        """
        return self.misses(capacity_lines) - min(self.cold, capacity_lines)

    def as_dict(self) -> Dict[int, int]:
        """``{distance: count}`` with cold keyed by :data:`COLD` — the
        exact shape :func:`repro.analysis.reuse.reuse_distance_histogram`
        returns."""
        out = {int(d): int(c)
               for d, c in zip(self.distances.tolist(), self.counts.tolist())}
        if self.cold:
            out[COLD] = self.cold
        return out

    @classmethod
    def from_distances(cls, dist: np.ndarray) -> "StackDistanceHistogram":
        """Histogram a per-access distance array (:func:`stack_distances`)."""
        dist = np.asarray(dist, dtype=np.int64)
        cold = int((dist == COLD).sum())
        finite = dist[dist != COLD]
        distances, counts = np.unique(finite, return_counts=True)
        return cls(distances=distances, counts=counts.astype(np.int64),
                   cold=cold)

    @classmethod
    def empty(cls) -> "StackDistanceHistogram":
        """Histogram of an empty stream."""
        return cls(distances=np.empty(0, dtype=np.int64),
                   counts=np.empty(0, dtype=np.int64), cold=0)


def stack_distance_histogram(lines) -> StackDistanceHistogram:
    """One vectorized pass over ``lines`` → the full capacity profile."""
    return StackDistanceHistogram.from_distances(stack_distances(lines))


def per_thread_histograms(lines, thread_ids) -> Dict[int, StackDistanceHistogram]:
    """Distances over the *shared* stream, histogrammed per issuing thread.

    ``lines`` is one cache instance's interleaved access stream and
    ``thread_ids`` names the issuer of each access.  Distances are
    computed once over the shared stream (interleaving is what makes a
    shared cache shared), then split by issuer — so pricing a capacity
    yields exact per-thread hit/miss counts, which the cost model needs
    for per-thread cycle accounting.
    """
    arr = _as_line_array(lines)
    tids = np.asarray(thread_ids, dtype=np.int64).ravel()
    if tids.size != arr.size:
        raise ValueError(
            f"thread_ids length {tids.size} != stream length {arr.size}")
    dist = stack_distances(arr)
    out: Dict[int, StackDistanceHistogram] = {}
    for tid in np.unique(tids).tolist():
        out[int(tid)] = StackDistanceHistogram.from_distances(
            dist[tids == tid])
    return out


# -- set-associative LRU: the W-bounded hit test ---------------------------------


def _kept(key: np.ndarray) -> Optional[np.ndarray]:
    """Mask of the accesses that differ from their predecessor, or None
    when no access repeats its predecessor.

    Back to back in one set, a repeat re-touches the MRU line: a hit
    that changes no LRU state, so the rest of the stream prices the
    same without it.
    """
    keep = np.empty(key.size, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return None if keep.all() else keep


def _spread(hit: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Hit flags of a whole stream from those of its ``kept`` accesses
    (the dropped repeats hit)."""
    out = np.ones(kept.size, dtype=bool)
    out[kept] = hit
    return out


def _window_min(values: np.ndarray, width: int) -> np.ndarray:
    """``out[i] = min(values[i - width + 1 .. i])`` (shorter at the head).

    Doubling spans, then one overlapping step for a ``width`` that is
    not a power of two: ``log2(width)`` passes, no ``(n, width)``
    matrix.  (Overlapping ufunc operands compute as if copied first.)
    """
    out = values.copy()
    span = 1
    while 2 * span <= width:
        np.minimum(out[span:], out[:-span], out=out[span:])
        span *= 2
    if span < width:
        rest = width - span
        np.minimum(out[rest:], out[:-rest], out=out[rest:])
    return out


def _deep_hits(nxt: np.ndarray, rows: np.ndarray, prevs: np.ndarray,
               ways: int) -> np.ndarray:
    """The rows (set-sorted positions) of rule 4 that hit.

    Walking back from access ``t`` towards its line's previous access
    ``prev``, position ``p`` is the last access to its line before ``t``
    iff ``nxt[p] > t`` (only ``prev`` itself has ``nxt == t``), so
    counting such positions counts the distinct lines of the window.
    Columns past the window are clamped onto ``prev``, which never
    counts.  A row misses once it has counted ``ways`` lines and hits
    once its whole window shows fewer.  Columns come in blocks, each as
    wide as all the columns before it; a slab of rows holds at most
    :data:`_SCAN_SLAB` cells, column-major, so each block's count is a
    sum of whole rows.
    """
    hit_rows = [rows[:0]]
    seen = np.zeros(rows.size, dtype=np.int32)
    # rule 3 saw a repeat among the first ``ways`` columns, so a block
    # that narrow could only settle rows whose gap it exactly covers
    first, width = 1, 2 * ways
    while rows.size:
        step = max(1, _SCAN_SLAB // width)
        # intp columns make intp indices, numpy's fastest gather; a
        # block of fewer than 256 columns counts in bytes
        cols = np.arange(first, first + width)[:, None]
        narrow = np.uint8 if width < 1 << 8 else np.int32
        survivors = []
        for a in range(0, rows.size, step):
            t, prev = rows[a:a + step], prevs[a:a + step]
            back = t - cols
            np.maximum(back, prev, out=back)
            fresh = (nxt[back] > t).view(np.uint8)
            count = seen[a:a + step] + np.add.reduce(fresh, axis=0,
                                                     dtype=narrow)
            missed = count >= ways
            covered = t - prev <= first + width
            covered &= ~missed
            hit_rows.append(t[covered])
            left = ~(missed | covered)
            survivors.append((t[left], prev[left], count[left]))
        rows, prevs, seen = (np.concatenate(part) for part in zip(*survivors))
        first += width
        width = min(first - 1, _SCAN_SLAB)
    return np.concatenate(hit_rows)


def lru_hits(lines, n_sets: int, ways: int) -> Tuple[np.ndarray, int]:
    """Exact hit flags of a cold ``n_sets`` x ``ways`` LRU cache.

    ``lines`` is the stream in arrival order; a line maps to set
    ``line & (n_sets - 1)``, as in :class:`~repro.memsim.cache.Cache`.
    Returns ``(hits, fills)``: ``hits[i]`` says whether access ``i``
    hits, and ``fills`` is the number of misses that land in an empty
    way — the sum over sets of ``min(distinct lines, ways)`` — so the
    cache evicts ``misses - fills`` lines.  Bit for bit what
    ``Cache.access_lines`` reports on a fresh cache; the module
    docstring gives the rules.  Sets are independent, so a long stream
    is priced in groups of sets of about :data:`_GROUP_LINES` accesses
    each, which bounds the temporaries.
    """
    arr = _as_line_array(lines)
    if n_sets <= 0 or n_sets & (n_sets - 1):
        raise ValueError(f"n_sets must be a power of two, got {n_sets}")
    if ways <= 0:
        raise ValueError(f"ways must be positive, got {ways}")
    n_groups = 1
    while n_groups < n_sets and arr.size > n_groups * _GROUP_LINES:
        n_groups *= 2
    if n_groups == 1:
        return _set_hits(arr, n_sets, ways)
    hits = np.empty(arr.size, dtype=bool)
    fills = 0
    group = arr.astype(np.uint32) & (n_groups - 1)
    for g in range(n_groups):
        idx = np.flatnonzero(group == g)
        hits[idx], group_fills = _set_hits(arr[idx], n_sets, ways)
        fills += group_fills
    return hits, fills


def _set_hits(arr: np.ndarray, n_sets: int,
              ways: int) -> Tuple[np.ndarray, int]:
    """:func:`lru_hits` on one validated stream, all sets at once."""
    if arr.size == 0:
        return np.ones(0, dtype=bool), 0
    # keys truncated to 16 or 32 bits stay one per line while the lines'
    # span fits, and keep the set bits while the sets do; narrow keys
    # also take numpy's radix sort
    span = int(arr.max()) - int(arr.min())
    if span < 1 << 16 and n_sets <= 1 << 16:
        key = arr.astype(np.uint16)
    elif span < 1 << 32 and n_sets <= 1 << 32:
        key = arr.astype(np.uint32)
    else:
        key = arr
    kept = _kept(key)
    if kept is not None:
        key = key[kept]
    order = set_kept = None
    if n_sets > 1:
        sets = np.bitwise_and(key, n_sets - 1, casting="unsafe",
                              dtype=np.uint8 if n_sets <= 1 << 8 else
                              np.uint16 if n_sets <= 1 << 16 else key.dtype)
        order = np.argsort(sets, kind="stable")
        del sets
        key = key[order]
        set_kept = _kept(key)
        if set_kept is not None:
            key = key[set_kept]
    hit, fills = _sorted_hits(key, n_sets, ways)
    if set_kept is not None:
        hit = _spread(hit, set_kept)
    if order is not None:
        unsorted = np.empty_like(hit)
        unsorted[order] = hit
        hit = unsorted
    if kept is not None:
        hit = _spread(hit, kept)
    return hit, fills


def _grouped(key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Positions grouped by key, in position order within each key, and
    the keys in that order.

    A narrow key and its position packed into one machine word sort as
    a pair, which numpy does several times faster than a stable
    argsort; only 64-bit keys leave no room for the position.  The
    positions come back as 32-bit ints where they fit, which halves
    the traffic of every pass that uses them.
    """
    m = key.size
    pos = np.int32 if m < 1 << 31 else np.int64
    if key.dtype == np.int64:
        by_key = np.argsort(key, kind="stable").astype(pos)
        return by_key, key[by_key]
    bits = 16 if key.dtype == np.uint16 and m <= 1 << 16 else 32
    word = np.uint32 if bits == 16 else np.uint64
    packed = key.astype(word) << bits
    packed |= np.arange(m, dtype=word)
    packed.sort()
    return (packed & ((1 << bits) - 1)).astype(pos), packed >> bits


def _sorted_hits(key: np.ndarray, n_sets: int,
                 ways: int) -> Tuple[np.ndarray, int]:
    """Hit flags and fills of a set-sorted stream with no repeats."""
    m = key.size
    by_line, key = _grouped(key)
    # same[i]: the access at by_line[i + 1] re-touches by_line[i]'s line
    same = key[1:] == key[:-1]
    if n_sets == 1:
        fills = min(m - int(np.count_nonzero(same)), ways)
    else:
        heads = key[1:][~same] & (n_sets - 1)
        distinct = np.bincount(heads.astype(np.intp), minlength=n_sets)
        distinct[key[0] & (n_sets - 1)] += 1
        fills = int(np.minimum(distinct, ways).sum())
    del key
    later = by_line[1:][same]
    earlier = by_line[:-1][same]
    del by_line, same
    nxt = np.full(m, m, dtype=later.dtype)
    nxt[earlier] = later
    hit = np.zeros(m, dtype=bool)
    near = later - earlier <= ways
    hit[later] = near                                           # rule 2
    np.logical_not(near, out=near)
    rows = later[near]
    prevs = earlier[near]
    del later, earlier, near
    if rows.size:
        deep = _window_min(nxt, ways)[rows - 1] < rows          # rule 3
        if deep.any():
            hit[_deep_hits(nxt, rows[deep], prevs[deep], ways)] = True
    return hit, fills                                           # rule 1 too


# -- engine eligibility ---------------------------------------------------------


def stack_ineligibility(spec: PlatformSpec) -> Optional[str]:
    """Why ``spec`` cannot be priced from stack distances (None = it can).

    Pricing is exact for any non-inclusive hierarchy of LRU caches,
    TLB included (see the module docstring).  It is not for other
    replacement policies, whose hits do not follow the distinct-line
    rule; for stream prefetchers, which install lines outside the
    demand stream; or for an inclusive LLC, whose evictions invalidate
    lines in the levels inside it.
    """
    for level in spec.levels:
        cache = level.cache
        if cache.replacement != "lru":
            return (f"{cache.name} replacement {cache.replacement!r} does "
                    f"not obey LRU stack inclusion")
        if level.prefetch is not None:
            return (f"{cache.name} prefetcher installs lines outside the "
                    f"demand stream")
    if spec.tlb is not None and spec.tlb.replacement != "lru":
        return (f"{spec.tlb.name} replacement {spec.tlb.replacement!r} does "
                f"not obey LRU stack inclusion")
    if spec.inclusive and len(spec.levels) > 1:
        return ("inclusive LLC back-invalidates inner levels, so their "
                "streams depend on the LLC's evictions")
    return None


def prices_by_histogram(spec: PlatformSpec) -> bool:
    """True when one stack-distance histogram prices ``spec``.

    That takes a single fully-associative LRU level and no TLB; a
    histogram then prices every capacity of such a platform, which is
    what capacity sweeps exploit.  Other eligible platforms are priced
    level by level with :func:`lru_hits`.
    """
    return (stack_ineligibility(spec) is None and len(spec.levels) == 1
            and spec.levels[0].cache.n_sets == 1 and spec.tlb is None)


def fully_associative_spec(capacity_lines: int,
                           line_bytes: int = 64,
                           name: Optional[str] = None,
                           level_name: str = "L1",
                           n_cores: int = 1,
                           n_sockets: int = 1,
                           smt: int = 1,
                           scope: str = "core",
                           freq_ghz: float = 1.0,
                           latency_cycles: float = 4.0,
                           mem_latency_cycles: float = 100.0,
                           mem_parallelism: float = 4.0) -> PlatformSpec:
    """A single-level fully-associative LRU platform — histogram
    pricing's native geometry, and the natural axis for capacity sweeps.

    Two specs from this helper that differ only in ``capacity_lines``
    are recognized by :func:`repro.experiments.sweep.sweep_cells` as a
    capacity-only sweep and priced from one histogram.
    """
    if capacity_lines <= 0:
        raise ValueError(f"capacity_lines must be positive, got {capacity_lines}")
    cache = CacheConfig(
        name=level_name,
        capacity_bytes=capacity_lines * line_bytes,
        line_bytes=line_bytes,
        ways=capacity_lines,
        replacement="lru",
    )
    return PlatformSpec(
        name=name or f"fa-lru-{capacity_lines}",
        n_cores=n_cores,
        n_sockets=n_sockets,
        smt=smt,
        freq_ghz=freq_ghz,
        levels=(LevelSpec(cache=cache, scope=scope,
                          latency_cycles=latency_cycles),),
        mem_latency_cycles=mem_latency_cycles,
        mem_parallelism=mem_parallelism,
        counters={
            f"{level_name}_TCA": (level_name, "accesses"),
            f"{level_name}_TCM": (level_name, "misses"),
        },
    )


# -- the histogram memo ---------------------------------------------------------


def stream_key(lines: np.ndarray, thread_ids: np.ndarray) -> str:
    """Content key of one instance stream (layout/kernel/order implied).

    Hashes the interleaved line ids plus their per-access issuing
    thread, little-endian int64 — everything the per-thread histograms
    depend on and nothing they don't (capacity, in particular, is *not*
    part of the key: that is the whole point).
    """
    h = hashlib.sha256()
    h.update(b"stackdist-v%d\n" % _HISTOGRAM_SCHEMA_VERSION)
    h.update(np.ascontiguousarray(lines, dtype="<i8").tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(thread_ids, dtype="<i8").tobytes())
    return h.hexdigest()


class HistogramStore:
    """In-memory memo of per-thread histograms keyed by stream content.

    A capacity sweep re-prices one stream at many geometries; sharing
    one store across those pricings computes each stream's histograms
    once.  ``hits`` and ``misses`` count memo lookups.
    """

    def __init__(self):
        self._memory: Dict[str, Dict[int, StackDistanceHistogram]] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(
        self, key: str,
        compute: Callable[[], Dict[int, StackDistanceHistogram]],
    ) -> Dict[int, StackDistanceHistogram]:
        """Fetch the bundle for ``key``, computing it on a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        hists = compute()
        self._memory[key] = hists
        return hists
