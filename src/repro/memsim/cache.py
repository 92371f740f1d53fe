"""Set-associative cache simulation.

The substitute for the paper's hardware: instead of reading PAPI
counters off Ivy Bridge / MIC silicon, we drive software caches with the
exact line-address streams the kernels generate and count hits/misses
directly.  Caches are set-associative with configurable line size,
associativity, and replacement policy (LRU, FIFO, tree-PLRU, random, and
a fully-vectorized direct-mapped fast path).

Only reads are simulated (the studied kernels are read-dominated:
stencil gathers and ray sampling; their writes are streaming stores of
output pencils/pixels which the paper's counters — L3 total cache
accesses, L2 data *read* miss — do not emphasize).  Write traffic can be
fed through the same ``access_lines`` if desired.

Replay
------
Every policy but ``direct`` replays one access at a time over per-set
Python lists: resident lines in recency or insertion order for LRU,
FIFO and random, way-indexed lines plus the tree bits for PLRU.  The
engine prices cold runs on LRU hierarchies from stack distances
(:mod:`repro.memsim.stackdist`) without touching a cache, so replay
serves non-LRU, prefetching, inclusive and warm runs and the engine's
``backend="scalar"`` oracle; in the repo's tables every replayed cache
has at most 256 sets.

Random replacement draws victims from a counter-based keyed hash
(splitmix64 over ``(seed, set, eviction ordinal)``), not from a
stateful RNG stream: victim choices therefore depend only on the
per-set eviction history — never on how the trace was chunked into
``access_lines`` calls (the engine's interleaving quantum) or on any
global RNG state — which keeps multi-process experiment replays
reproducible run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..core.bits import ilog2, is_power_of_two

__all__ = ["CacheConfig", "CacheStats", "Cache", "REPLACEMENT_POLICIES"]

REPLACEMENT_POLICIES = ("lru", "fifo", "plru", "random", "direct")

# -- counter-based victim hash (random replacement) ---------------------------

_U64 = (1 << 64) - 1
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB
_SEED_MUL = 0x632BE59BD9B4E019
_SET_MUL = 0xD1B54A32D192ED03


def _victim_way(seed: int, set_idx: int, ordinal: int, ways: int) -> int:
    """Victim way for the ``ordinal``-th eviction in ``set_idx``."""
    x = (seed * _SEED_MUL + set_idx * _SET_MUL + ordinal) & _U64
    x = (x + _SM_GAMMA) & _U64
    x = ((x ^ (x >> 30)) * _SM_MUL1) & _U64
    x = ((x ^ (x >> 27)) * _SM_MUL2) & _U64
    x = x ^ (x >> 31)
    return x % ways


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one cache.

    Parameters
    ----------
    name : str
        Level label ("L1", "L2", "L3").
    capacity_bytes : int
        Total data capacity.  Must be ``n_sets * ways * line_bytes`` with
        ``n_sets`` a power of two.
    line_bytes : int
        Cache-line size (64 on both of the paper's platforms).
    ways : int
        Associativity.  ``replacement="direct"`` forces ways == 1.
    replacement : str
        One of ``lru`` (default), ``fifo``, ``plru``, ``random``,
        ``direct`` (direct-mapped, vectorized fast path).
    """

    name: str
    capacity_bytes: int
    line_bytes: int = 64
    ways: int = 8
    replacement: str = "lru"

    def __post_init__(self):
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement {self.replacement!r}; "
                f"choose from {REPLACEMENT_POLICIES}"
            )
        if not is_power_of_two(self.line_bytes):
            raise ValueError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if self.replacement == "direct" and self.ways != 1:
            raise ValueError("direct-mapped caches must have ways == 1")
        if self.ways <= 0:
            raise ValueError(f"ways must be positive, got {self.ways}")
        if self.replacement == "plru" and not is_power_of_two(self.ways):
            raise ValueError("tree-PLRU requires power-of-two associativity")
        n_sets, rem = divmod(self.capacity_bytes, self.ways * self.line_bytes)
        if rem or n_sets <= 0 or not is_power_of_two(n_sets):
            raise ValueError(
                f"capacity {self.capacity_bytes} is not line*ways*2^k "
                f"(line={self.line_bytes}, ways={self.ways})"
            )

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.capacity_bytes // (self.ways * self.line_bytes)

    @property
    def n_lines(self) -> int:
        """Total line slots."""
        return self.n_sets * self.ways

    def scaled(self, factor: int) -> "CacheConfig":
        """Capacity divided by ``factor`` (rounded down to a valid geometry).

        Associativity and line size are preserved; the set count shrinks
        to the nearest power of two, with a floor of one set.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        target_sets = max(1, self.n_sets // factor)
        n_sets = 1 << ilog2(target_sets) if is_power_of_two(target_sets) else (
            1 << (target_sets.bit_length() - 1)
        )
        return CacheConfig(
            name=self.name,
            capacity_bytes=n_sets * self.ways * self.line_bytes,
            line_bytes=self.line_bytes,
            ways=self.ways,
            replacement=self.replacement,
        )


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance.

    ``evictions`` counts demand-access replacements of a *resident* line
    (cold fills into empty ways are not evictions; prefetch installs and
    invalidations never touch any counter).
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Elementwise sum (for aggregating per-core instances)."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )


class Cache:
    """One simulated cache; feed it line ids, get back the missed ones.

    Line ids are byte addresses divided by ``line_bytes`` (the division
    happens upstream, once, vectorized).  State persists across calls so
    a cache can be shared between interleaved threads.
    """

    def __init__(self, config: CacheConfig, seed: int = 0):
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.n_sets - 1
        self._seed = seed
        #: lines evicted by the most recent access_lines call (filled only
        #: when track_evictions is on — the inclusive-hierarchy hook)
        self.track_evictions = False
        self.last_evicted: list = []
        self.reset()

    def reset(self) -> None:
        """Empty the cache and zero the counters.

        The per-set replay state is built by the next call that replays
        or inspects contents; a priced run only ever touches
        :attr:`stats`.
        """
        self.stats = CacheStats()
        self.last_evicted = []
        self._empty = True

    def _build_state(self) -> None:
        """Allocate empty per-set replay state (on first use after reset)."""
        cfg = self.config
        self._empty = False
        if cfg.replacement == "random":
            # per-set eviction ordinals feeding the victim hash
            self._evict_seq = np.zeros(cfg.n_sets, dtype=np.int64)
        if cfg.replacement == "direct":
            self._dm_state = np.full(cfg.n_sets, -1, dtype=np.int64)
        elif cfg.replacement == "plru":
            # way-resident line per set, plus the PLRU tree bits per set
            self._lines = [[-1] * cfg.ways for _ in range(cfg.n_sets)]
            self._tree = [0] * cfg.n_sets
        else:
            # lru / fifo / random: per-set list of resident line ids.
            # For LRU the list is MRU-first; for FIFO it is insertion order
            # newest-first; for random order is the append/replace order
            # the victim hash indexes into.
            self._sets: List[list] = [[] for _ in range(cfg.n_sets)]

    # -- main entry ------------------------------------------------------------

    def access_lines(self, lines) -> np.ndarray:
        """Access ``lines`` in order; return the missed lines, in order.

        Misses insert the line (fill on miss, i.e. allocate-on-read).
        """
        lines = np.asarray(lines, dtype=np.int64)
        if self.track_evictions:
            self.last_evicted = []
        if lines.size == 0:
            return lines
        if self._empty:
            self._build_state()
        policy = self.config.replacement
        if policy == "direct":
            return self._access_direct(lines)
        if policy == "lru":
            missed = self._access_lru(lines)
        elif policy == "fifo":
            missed = self._access_fifo(lines)
        elif policy == "random":
            missed = self._access_random(lines)
        else:
            missed = self._access_plru(lines)
        self.stats.accesses += lines.size
        self.stats.misses += len(missed)
        self.stats.hits += lines.size - len(missed)
        return np.asarray(missed, dtype=np.int64)

    # -- replacement policies ---------------------------------

    def _access_lru(self, lines: np.ndarray) -> list:
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        track = self.track_evictions
        missed: list = []
        ap = missed.append
        for ln in lines.tolist():
            s = sets[ln & mask]
            if ln in s:
                if s[0] != ln:
                    s.remove(ln)
                    s.insert(0, ln)
            else:
                ap(ln)
                s.insert(0, ln)
                if len(s) > ways:
                    victim = s.pop()
                    self.stats.evictions += 1
                    if track:
                        self.last_evicted.append(victim)
        return missed

    def _access_fifo(self, lines: np.ndarray) -> list:
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        missed: list = []
        ap = missed.append
        for ln in lines.tolist():
            s = sets[ln & mask]
            if ln not in s:
                ap(ln)
                s.insert(0, ln)
                if len(s) > ways:
                    victim = s.pop()
                    self.stats.evictions += 1
                    if self.track_evictions:
                        self.last_evicted.append(victim)
        return missed

    def _access_random(self, lines: np.ndarray) -> list:
        sets = self._sets
        mask = self._set_mask
        ways = self.config.ways
        seed = self._seed
        seq = self._evict_seq
        missed: list = []
        ap = missed.append
        for ln in lines.tolist():
            si = ln & mask
            s = sets[si]
            if ln not in s:
                ap(ln)
                if len(s) < ways:
                    s.append(ln)
                else:
                    v = _victim_way(seed, si, int(seq[si]), ways)
                    seq[si] += 1
                    self.stats.evictions += 1
                    if self.track_evictions:
                        self.last_evicted.append(s[v])
                    s[v] = ln
        return missed

    def _access_plru(self, lines: np.ndarray) -> list:
        """Tree-PLRU: one bit per internal node steers victim selection."""
        ways = self.config.ways
        levels = ways.bit_length() - 1  # ways is a power of two
        mask = self._set_mask
        lines_tab = self._lines
        tree_tab = self._tree
        missed: list = []
        ap = missed.append
        for ln in lines.tolist():
            si = ln & mask
            resident = lines_tab[si]
            tree = tree_tab[si]
            try:
                way = resident.index(ln)
                hit = True
            except ValueError:
                hit = False
            if not hit:
                ap(ln)
                # walk the tree following the PLRU bits to the victim leaf
                node = 0
                way = 0
                for _ in range(levels):
                    bit = (tree >> node) & 1
                    way = (way << 1) | bit
                    node = 2 * node + 1 + bit
                if resident[way] >= 0:
                    self.stats.evictions += 1
                    if self.track_evictions:
                        self.last_evicted.append(resident[way])
                resident[way] = ln
            # update tree bits to point *away* from this way on the path
            node = 0
            for lvl in range(levels - 1, -1, -1):
                bit = (way >> lvl) & 1
                if bit:
                    tree &= ~(1 << node)
                else:
                    tree |= 1 << node
                node = 2 * node + 1 + bit
            tree_tab[si] = tree
        return missed

    def _access_direct(self, lines: np.ndarray) -> np.ndarray:
        """Vectorized direct-mapped path (no Python per-access loop).

        Exact: a direct-mapped hit happens iff the previous access to the
        same set (within this batch, or the persisted state for the first
        such access) was the same line.
        """
        state = self._dm_state
        sets = lines & self._set_mask
        order = np.argsort(sets, kind="stable")
        s_lines = lines[order]
        s_sets = sets[order]
        hit_sorted = np.empty(lines.size, dtype=bool)
        same_set = np.empty(lines.size, dtype=bool)
        same_set[0] = False
        same_set[1:] = s_sets[1:] == s_sets[:-1]
        prev_line = np.empty_like(s_lines)
        prev_line[0] = -1
        prev_line[1:] = s_lines[:-1]
        # first access per set in the batch compares against persisted state
        first_of_set = ~same_set
        hit_sorted = np.where(first_of_set, state[s_sets] == s_lines,
                              prev_line == s_lines)
        # a miss evicts unless it filled a slot that was empty — only the
        # first access per set can find an empty slot
        filled_empty = first_of_set & (state[s_sets] < 0)
        if self.track_evictions:
            # any resident line replaced during the batch was evicted:
            # walk the per-set subsequences (small python loop over misses)
            prev_state = state.copy()
            for s_idx, ln, hit in zip(s_sets.tolist(), s_lines.tolist(),
                                      hit_sorted.tolist()):
                if not hit:
                    old = prev_state[s_idx]
                    if old >= 0 and old != ln:
                        self.last_evicted.append(int(old))
                    prev_state[s_idx] = ln
        # persist the last line per set
        last_of_set = np.empty(lines.size, dtype=bool)
        last_of_set[:-1] = s_sets[:-1] != s_sets[1:]
        last_of_set[-1] = True
        state[s_sets[last_of_set]] = s_lines[last_of_set]
        hits = np.empty(lines.size, dtype=bool)
        hits[order] = hit_sorted
        self.stats.accesses += lines.size
        n_hits = int(hits.sum())
        self.stats.hits += n_hits
        n_misses = lines.size - n_hits
        self.stats.misses += n_misses
        self.stats.evictions += n_misses - int(filled_empty.sum())
        return lines[~hits]

    # -- prefetch support ---------------------------------------------------------

    def install_lines(self, lines) -> int:
        """Insert lines without counting accesses (prefetch fills).

        Lines already resident are refreshed to MRU under LRU (matching
        hardware prefetchers that update replacement state); evictions
        follow the normal policy but are never recorded in counters or
        ``last_evicted``.  Returns how many lines were newly installed
        (i.e. were not already resident).
        """
        lines = np.asarray(lines, dtype=np.int64)
        if lines.size == 0:
            return 0
        if self._empty:
            self._build_state()
        cfg = self.config
        installed = 0
        if cfg.replacement == "direct":
            sets = lines & self._set_mask
            installed = int((self._dm_state[sets] != lines).sum())
            self._dm_state[sets] = lines
            return installed
        if cfg.replacement == "plru":
            before = (self.stats.accesses, self.stats.hits,
                      self.stats.misses, self.stats.evictions)
            track = self.track_evictions
            self.track_evictions = False
            try:
                missed = self._access_plru(lines)
            finally:
                self.track_evictions = track
            (self.stats.accesses, self.stats.hits,
             self.stats.misses, self.stats.evictions) = before
            return len(missed)
        mask = self._set_mask
        ways = cfg.ways
        sets = self._sets
        for ln in lines.tolist():
            s = sets[ln & mask]
            if ln in s:
                if cfg.replacement == "lru" and s[0] != ln:
                    s.remove(ln)
                    s.insert(0, ln)
            else:
                installed += 1
                s.insert(0, ln)
                if len(s) > ways:
                    s.pop()
        return installed

    def invalidate(self, lines) -> int:
        """Drop lines from the cache if present (inclusion back-invalidate).

        Returns how many were actually resident.  No counters change: an
        invalidation is not a demand access.
        """
        lines = np.asarray(lines, dtype=np.int64)
        if self._empty:
            return 0
        cfg = self.config
        dropped = 0
        if cfg.replacement == "direct":
            sets = lines & self._set_mask
            match = self._dm_state[sets] == lines
            dropped = int(match.sum())
            self._dm_state[sets[match]] = -1
            return dropped
        if cfg.replacement == "plru":
            for ln in lines.tolist():
                resident = self._lines[ln & self._set_mask]
                try:
                    resident[resident.index(ln)] = -1
                    dropped += 1
                except ValueError:
                    pass
            return dropped
        for ln in lines.tolist():
            s = self._sets[ln & self._set_mask]
            if ln in s:
                s.remove(ln)
                dropped += 1
        return dropped

    # -- introspection -----------------------------------------------------------

    def resident_lines(self) -> set:
        """Set of line ids currently resident (for tests)."""
        if self._empty:
            return set()
        cfg = self.config
        if cfg.replacement == "direct":
            return {int(x) for x in self._dm_state if x >= 0}
        if cfg.replacement == "plru":
            return {ln for s in self._lines for ln in s if ln >= 0}
        return {ln for s in self._sets for ln in s}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        c = self.config
        return (
            f"Cache({c.name}, {c.capacity_bytes}B, {c.ways}-way, "
            f"{c.replacement}, sets={c.n_sets})"
        )
