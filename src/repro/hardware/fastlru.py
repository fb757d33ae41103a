"""Vectorized cache/TLB models (the fast replay engine).

The reference models in :mod:`repro.hardware.cache` and
:mod:`repro.hardware.tlb` replay one line per Python call -- faithful but
slow when a figure sweeps millions of coalesced transactions.  This module
re-implements the same three policies with numpy batch kernels:

* :class:`VectorLruCache` -- fully associative LRU.  When a batch's
  distinct keys, the resident stack included, fit the capacity, nothing
  is evicted: every re-touch hits and one packed sort decides every
  access (the no-eviction path).  Otherwise the stream is processed in
  chunks of at most ``min(capacity, 4096)`` accesses.  Within a chunk
  every re-access is a guaranteed hit (a chunk is shorter than the
  capacity, so nothing evicts between two touches of the same key), and
  accesses to pre-chunk residents hit iff
  ``depth + new_distinct_before < capacity`` -- a stack-distance test
  resolved with two cumulative bounds and an exact dominance count for
  the few accesses that land between the bounds.
* :class:`VectorSetAssociativeCache` -- set-associative LRU, replayed by
  one stack-distance kernel (Mattson et al., 1970): an access hits iff
  fewer than ``ways`` distinct lines of its set were touched since its
  previous use.  Cheap bounds settle most accesses; lag passes over the
  whole batch at once resolve the rest (see
  :meth:`VectorSetAssociativeCache._replay`).
* :class:`VectorLruTlb` -- :class:`VectorLruCache` plus first-touch (cold
  miss) tracking, mirroring :class:`repro.hardware.tlb.LruTlb`.

Exactness is the contract, not an aspiration: every model produces the
same per-access hit/miss outcomes, the same eviction order, and the same
counters as its ``OrderedDict`` reference on any stream (see
``tests/hardware/test_fast_models.py``).  The scalar ``access`` API is kept
for drop-in compatibility; the batch APIs are what the executor's fast
path uses.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .. import obs
from ..errors import ConfigurationError

#: Chunk length for the fully-associative models.  Must not exceed the
#: capacity (the free-hit argument above needs it).  4096 balances the
#: per-chunk numpy call overhead against the in-chunk ambiguity band,
#: which grows superlinearly with the chunk length (measured fastest on
#: the standard sweeps among 1k-16k).
_CHUNK = 4096

#: Longest batch one set-associative replay covers.  Bounds the kernel's
#: temporaries and keeps its positions (batch plus resident prefixes)
#: well inside int32.
_SET_BATCH = 1 << 21


def _emit_model_counters(name: str, accesses: int, hits: int) -> None:
    """Batch-granularity obs counters for one named hierarchy level."""
    obs.add(f"model.{name}.accesses", float(accesses))
    obs.add(f"model.{name}.hits", float(hits))
    obs.add(f"model.{name}.misses", float(accesses - hits))


def _packed_sort(keys: np.ndarray):
    """Stable sort of int64 keys in one packed int64 sort.

    Returns ``(sorted_keys, positions)``.  Packs each element's position
    into the low bits below its key, so the default (unstable, fast) sort
    orders equal keys by position; the position field is sized from the
    length, so keys must fit in the remaining bits.
    """
    bits = max(len(keys) - 1, 1).bit_length()
    packed = np.sort((keys << bits) | np.arange(len(keys), dtype=np.int64))
    return packed >> bits, packed & ((1 << bits) - 1)


class VectorLruCache:
    """Fully associative LRU over line numbers, batch-vectorized.

    Interface-compatible with :class:`repro.hardware.cache.LruCache`; adds
    :meth:`access_batch` and :meth:`resident_lines`.
    """

    #: Set by the owner (e.g. ``MachineModel`` names its levels "l1"/"l2")
    #: to emit ``model.<obs_name>.*`` counters from batch accesses while
    #: tracing is on.  Unnamed models stay silent.
    obs_name: Optional[str] = None

    def __init__(self, capacity_bytes: int, line_bytes: int):
        if capacity_bytes <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity_bytes}"
            )
        if line_bytes <= 0:
            raise ConfigurationError(
                f"line size must be positive, got {line_bytes}"
            )
        if capacity_bytes < line_bytes:
            raise ConfigurationError(
                f"cache capacity {capacity_bytes} smaller than one line "
                f"({line_bytes})"
            )
        self.capacity_lines = capacity_bytes // line_bytes
        self.line_bytes = line_bytes
        self._stack = np.empty(0, np.int64)  # resident keys, MRU first
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._stack = np.empty(0, np.int64)
        self.hits = 0
        self.misses = 0

    # -- batch path ----------------------------------------------------

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Touch a stream of lines; returns the per-access hit mask."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = len(lines)
        if n == 0:
            return np.zeros(0, bool)
        # The residents go first, LRU to MRU, as pseudo-accesses.
        n_resident = len(self._stack)
        both = np.concatenate([self._stack[::-1], lines])
        keys, at = _packed_sort(both)
        group_start = np.ones(len(both), bool)
        np.not_equal(keys[1:], keys[:-1], out=group_start[1:])
        distinct = int(np.count_nonzero(group_start))
        if distinct <= self.capacity_lines:
            # No-eviction path: every key fits, so an access hits iff its
            # key was resident or touched earlier in the batch, and the
            # new stack is every key by last touch.
            hit = np.ones(len(both), bool)
            hit[at[group_start]] = False
            hit_mask = hit[n_resident:]
            group_last = np.ones(len(both), bool)
            group_last[:-1] = group_start[1:]
            self._stack = both[np.sort(at[group_last])[::-1]]
        else:
            ids = np.empty(len(both), np.int64)
            ids[at] = np.cumsum(group_start, dtype=np.int64) - 1
            hit_mask, stack = _lru_replay(
                ids[n_resident:],
                self.capacity_lines,
                ids[:n_resident][::-1],
                distinct,
            )
            self._stack = keys[group_start][stack]
        nhit = int(np.count_nonzero(hit_mask))
        self.hits += nhit
        self.misses += n - nhit
        if self.obs_name is not None and obs.enabled():
            _emit_model_counters(self.obs_name, n, nhit)
        return hit_mask

    # -- scalar compatibility ------------------------------------------

    def access(self, line: int) -> bool:
        """Touch one line; returns True on a hit, inserting on a miss."""
        return bool(self.access_batch(np.array([line], np.int64))[0])

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        return bool(np.any(self._stack == line))

    def resident_lines(self) -> np.ndarray:
        """Resident lines in LRU-to-MRU order (OrderedDict iteration order)."""
        return self._stack[::-1].copy()

    @property
    def occupancy(self) -> int:
        return len(self._stack)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


def _lru_replay(keys: np.ndarray, capacity: int, stack: np.ndarray, umax: int):
    """Exact LRU replay over dense non-negative ids.

    ``stack`` holds the resident ids, most recent first.  Returns the hit
    mask and the updated stack.  See the module docstring for the
    stack-distance argument behind the chunked evaluation.
    """
    n = len(keys)
    T = min(capacity, _CHUNK)
    hits = np.zeros(n, bool)
    depth_map = np.full(umax, -1, np.int32)
    for lo in range(0, n, T):
        k = keys[lo : lo + T]
        t = len(k)
        depth_map[stack] = np.arange(len(stack), dtype=np.int32)
        packed = np.sort((k << 14) | np.arange(t, dtype=np.int64))
        pk = packed >> 14
        ppos = packed & 0x3FFF
        group_start = np.ones(t, bool)
        group_start[1:] = pk[1:] != pk[:-1]
        first = np.zeros(t, bool)
        first[ppos] = group_start          # first in-chunk touch, time order
        hits[lo + np.nonzero(~first)[0]] = True   # re-touches always hit
        fk = k[first]
        fpos = np.nonzero(first)[0]
        delta = depth_map[fk].astype(np.int64)    # -1 = not resident
        absent = delta < 0
        resident = ~absent
        # Exclusive running counts over first-occurrences, time order:
        # f = all first-occurrences so far (upper bound on sinkage),
        # g = absent first-occurrences so far (lower bound on sinkage).
        f_excl = np.arange(len(fk), dtype=np.int64)
        g_excl = np.cumsum(absent, dtype=np.int64) - absent
        free_hit = resident & (delta + f_excl < capacity)
        certain_miss = absent | (delta + g_excl >= capacity)
        ambiguous = ~(free_hit | certain_miss)
        first_hit = free_hit
        n_amb = int(np.count_nonzero(ambiguous))
        if n_amb:
            # Exact sinkage: of the f_excl first-occurrences before the
            # query, those touching a shallower resident do not push it
            # down -- count them (a 2-D dominance count: src_t < qt and
            # src_d <= qd) and subtract.  The count is evaluated blocked:
            # residents are split into 64-wide time blocks whose depths
            # are sorted once (all blocks in a single flat sort, keyed by
            # block * (capacity + 1) + depth), full blocks answer with one
            # batched searchsorted, and each query's partial block is a
            # 64-element masked compare -- O((A + R) log) instead of the
            # A x R broadcast.
            src_t = f_excl[resident]            # strictly increasing
            src_d = delta[resident]
            qt = f_excl[ambiguous]
            qd = delta[ambiguous]
            L = 64
            num_blocks = -(-len(src_d) // L)
            span = capacity + 1                 # depths < capacity; pad = capacity
            padded = np.full(num_blocks * L, capacity, np.int64)
            padded[: len(src_d)] = src_d
            block_of = np.repeat(
                np.arange(num_blocks, dtype=np.int64), L
            )
            flat = np.sort(block_of * span + padded)
            eligible = np.searchsorted(src_t, qt, side="left")
            full_blocks = eligible // L
            remainder = eligible - full_blocks * L
            q_keys = (
                np.arange(num_blocks, dtype=np.int64)[:, None] * span
                + qd[None, :]
            )
            per_block = np.searchsorted(
                flat, q_keys.reshape(-1), side="right"
            ).reshape(num_blocks, n_amb)
            per_block -= np.arange(num_blocks, dtype=np.int64)[:, None] * L
            cumulative = np.zeros((num_blocks + 1, n_amb), np.int64)
            np.cumsum(per_block, axis=0, out=cumulative[1:])
            shallower = cumulative[full_blocks, np.arange(n_amb)]
            lane = np.arange(L, dtype=np.int64)
            window = np.minimum(
                full_blocks[:, None] * L + lane[None, :],
                num_blocks * L - 1,
            )
            shallower += (
                (padded[window] <= qd[:, None])
                & (lane[None, :] < remainder[:, None])
            ).sum(axis=1)
            first_hit = free_hit.copy()
            first_hit[ambiguous] = qd + qt - shallower < capacity
        hits[lo + fpos[first_hit]] = True
        # New stack: chunk keys by last touch (newest first), then the
        # untouched old residents in their old order, capped at capacity.
        # (LRU inclusion: the content is always the capacity most recently
        # used distinct keys, whatever evictions happened mid-chunk.)
        group_last = np.ones(t, bool)
        group_last[:-1] = pk[1:] != pk[:-1]
        last_pos = np.sort(ppos[group_last])[::-1]
        depth_map[stack] = -1              # clear for the next chunk
        untouched = np.ones(len(stack), bool)
        untouched[delta[resident]] = False
        stack = np.concatenate([k[last_pos], stack[untouched]])[:capacity]
    return hits, stack


class VectorSetAssociativeCache:
    """Set-associative LRU over line numbers, batch-vectorized.

    Interface-compatible with
    :class:`repro.hardware.cache.SetAssociativeCache`.  State is one
    ``(sets, ways)`` array: each row holds its set's resident lines
    right-aligned in LRU-to-MRU order, ``-1`` marking an empty way.
    """

    #: See :attr:`VectorLruCache.obs_name`.
    obs_name: Optional[str] = None

    def __init__(self, capacity_bytes: int, line_bytes: int, ways: int = 16):
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive, got {ways}")
        if capacity_bytes <= 0 or line_bytes <= 0:
            raise ConfigurationError(
                "capacity and line size must be positive, got "
                f"{capacity_bytes} / {line_bytes}"
            )
        capacity_lines = capacity_bytes // line_bytes
        if capacity_lines < ways:
            raise ConfigurationError(
                f"capacity of {capacity_lines} lines cannot hold {ways} ways"
            )
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = max(1, capacity_lines // ways)
        self._tags = np.full((self.num_sets, ways), -1, np.int64)
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self._tags.fill(-1)
        self.hits = 0
        self.misses = 0

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Touch a stream of lines; returns the per-access hit mask."""
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = len(lines)
        if n == 0:
            return np.zeros(0, bool)
        hit_mask = np.empty(n, bool)
        for lo in range(0, n, _SET_BATCH):
            batch = lines[lo : lo + _SET_BATCH]
            hit_mask[lo : lo + _SET_BATCH] = self._replay(batch)
        nhit = int(np.count_nonzero(hit_mask))
        self.hits += nhit
        self.misses += n - nhit
        if self.obs_name is not None and obs.enabled():
            _emit_model_counters(self.obs_name, n, nhit)
        return hit_mask

    def _replay(self, lines: np.ndarray) -> np.ndarray:
        """Exactly replay one batch with a stack-distance kernel.

        Under LRU an access hits iff its line was touched before and fewer
        than ``ways`` distinct lines of its set were touched since.  A line
        maps to exactly one set, so once the batch is grouped by set the
        whole batch is one stream: no reuse window crosses a set boundary.

        1. Group the batch by set, keeping each set's arrival order, and
           put the set's residents (LRU to MRU) in front as
           pseudo-accesses, so carried state needs no special casing.
        2. Drop immediate repeats: a repeat of the set's previous line
           hits the MRU way and leaves the LRU order unchanged.
        3. Get each position's previous and next occurrence of its line
           from one packed sort.
        4. Settle the easy cases: a first touch misses; a reuse window
           shorter than ``ways`` hits; a set with at most ``ways``
           distinct lines evicts nothing, so its re-touches hit; and
           ``ways`` first touches inside the window make a miss.
        5. Resolve the rest with lag passes.  Position ``i - lag`` is
           *alive* at ``i`` iff its line's next occurrence is at or after
           ``i``, so the alive count over the last ``lag`` positions is
           the distinct-line count of that suffix of the window.  An
           access retires as a miss once that count reaches ``ways``, and
           as a hit once the count plus the positions still unvisited
           stays below ``ways``.
        6. Rebuild each touched set from its last ``ways`` distinct lines
           (LRU inclusion: the content is the most recently used ones).
        """
        n = len(lines)
        ways = self.ways
        # 1. Group by set; ``src`` maps a stream position to its batch
        # position (-1 for a resident pseudo-access).
        set_of, src = _packed_sort(lines % self.num_sets)
        seg_start = np.ones(n, bool)
        np.not_equal(set_of[1:], set_of[:-1], out=seg_start[1:])
        touched = set_of[seg_start]
        del set_of
        stream = lines[src]
        resident = self._tags[touched]
        held = resident >= 0
        if held.any():
            starts = np.nonzero(seg_start)[0]
            held_per_set = held.sum(axis=1)
            shift = np.cumsum(held_per_set)
            at = np.arange(n) + np.repeat(shift, np.diff(starts, append=n))
            starts += shift - held_per_set
            total = n + int(shift[-1])
            row, col = np.nonzero(held)
            merged = np.empty(total, np.int64)
            merged[at] = stream
            merged[starts[row] + col - (ways - held_per_set[row])] = (
                resident[held]
            )
            stream = merged
            merged_src = np.full(total, -1, np.int64)
            merged_src[at] = src
            src = merged_src
            seg_start = np.zeros(total, bool)
            seg_start[starts] = True
            del at, row, col, merged, merged_src
        # 2. Equal neighbours are always in one set: a line has one set.
        hits = np.zeros(n, bool)
        repeat = np.zeros(len(stream), bool)
        np.equal(stream[1:], stream[:-1], out=repeat[1:])
        hits[src[repeat]] = True
        keep = ~repeat
        stream = stream[keep]
        src = src[keep]
        starts = np.nonzero(seg_start[keep])[0]
        del repeat, keep, seg_start
        # 3. Previous / next occurrence (``m`` = none after).
        m = len(stream)
        line_of, at = _packed_sort(stream)
        same = line_of[1:] == line_of[:-1]
        del line_of
        at = at.astype(np.int32)
        earlier = at[:-1][same]
        later = at[1:][same]
        del at, same
        prev = np.full(m, -1, np.int32)
        prev[later] = earlier
        nxt = np.full(m, m, np.int32)
        nxt[earlier] = later
        del earlier, later
        # 4. Bounds.  ``firsts[i]`` counts first touches up to ``i``; its
        # value at a set's end is that set's distinct-line count.
        first = prev < 0
        firsts = np.cumsum(first, dtype=np.int32)
        seg_len = np.diff(starts, append=m)
        distinct = np.diff(firsts[starts + seg_len - 1], prepend=0)
        stream_hit = ~first
        window = np.arange(m, dtype=np.int32) - prev - 1
        open_ = np.nonzero(
            stream_hit & (window >= ways) & np.repeat(distinct > ways, seg_len)
        )[0]
        new_lines = firsts[open_] - firsts[prev[open_]]
        stream_hit[open_[new_lines >= ways]] = False
        q = open_[new_lines < ways].astype(np.int32)
        wq = window[q]
        del first, firsts, window, open_, new_lines
        # 5. Lag passes.
        alive = np.zeros(len(q), np.int32)
        lag = 0
        while len(q):
            lag += 1
            alive += nxt[q - lag] > q
            if lag < ways:
                continue  # every open window spans at least ``ways``
            miss = alive >= ways
            done = miss | (alive + wq - lag < ways)
            stream_hit[q[done]] = ~miss[done]
            live = ~done
            q, wq, alive = q[live], wq[live], alive[live]
        from_batch = src >= 0
        hits[src[from_batch]] = stream_hit[from_batch]
        # 6. Each line's last touch, in stream order; a set holds
        # ``distinct`` of them.
        last = np.nonzero(nxt == m)[0]
        set_rank = np.repeat(np.arange(len(touched)), distinct)
        from_end = np.repeat(np.cumsum(distinct), distinct) - 1 - np.arange(
            len(last)
        )
        kept = from_end < ways
        self._tags[touched] = -1
        self._tags[touched[set_rank[kept]], ways - 1 - from_end[kept]] = (
            stream[last[kept]]
        )
        return hits

    # -- scalar compatibility ------------------------------------------

    def access(self, line: int) -> bool:
        """Touch one line; returns True on a hit, inserting on a miss."""
        return bool(self.access_batch(np.array([line], np.int64))[0])

    def access_sequence(self, lines: Iterable[int]) -> int:
        """Touch a sequence of lines; returns the number of misses."""
        arr = np.fromiter(lines, dtype=np.int64)
        before = self.misses
        self.access_batch(arr)
        return self.misses - before

    def contains(self, line: int) -> bool:
        """Whether a line is resident, without touching LRU state."""
        return bool(np.any(self._tags[int(line) % self.num_sets] == line))

    def resident_lines(self, set_index: int) -> np.ndarray:
        """One set's resident lines in LRU-to-MRU order."""
        row = self._tags[set_index]
        return row[row >= 0].copy()

    @property
    def occupancy(self) -> int:
        return int(np.count_nonzero(self._tags >= 0))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


class VectorLruTlb:
    """Exact LRU TLB with cold-miss tracking, batch-vectorized.

    Interface-compatible with :class:`repro.hardware.tlb.LruTlb`.
    """

    #: See :attr:`VectorLruCache.obs_name`.  The inner
    #: :class:`VectorLruCache` stays unnamed so TLB accesses are not
    #: double-counted.
    obs_name: Optional[str] = None

    def __init__(self, entries: int):
        if entries <= 0:
            raise ConfigurationError(
                f"TLB must have a positive number of entries, got {entries}"
            )
        self.entries = entries
        self._cache = VectorLruCache(entries, 1)
        self._seen = np.empty(0, np.int64)  # every page ever touched, sorted
        self.cold_misses = 0

    def reset(self) -> None:
        self._cache.reset()
        self._seen = np.empty(0, np.int64)
        self.cold_misses = 0

    @property
    def hits(self) -> int:
        return self._cache.hits

    @property
    def misses(self) -> int:
        return self._cache.misses

    def access_batch(self, pages: np.ndarray) -> np.ndarray:
        """Touch a stream of pages; returns the per-access hit mask."""
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        if len(pages) == 0:
            return np.zeros(0, bool)
        ordered = np.sort(pages)  # np.unique's mergesort is far slower
        distinct = np.ones(len(ordered), bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        candidates = ordered[distinct]
        slot = np.searchsorted(self._seen, candidates)
        known = np.zeros(len(candidates), bool)
        inside = slot < len(self._seen)
        known[inside] = self._seen[slot[inside]] == candidates[inside]
        fresh = candidates[~known]
        if len(fresh):
            self.cold_misses += len(fresh)
            merged = np.empty(len(self._seen) + len(fresh), np.int64)
            at = slot[~known] + np.arange(len(fresh))
            merged[at] = fresh
            keep = np.ones(len(merged), bool)
            keep[at] = False
            merged[keep] = self._seen
            self._seen = merged
        hit_mask = self._cache.access_batch(pages)
        if self.obs_name is not None and obs.enabled():
            nhit = int(np.count_nonzero(hit_mask))
            _emit_model_counters(self.obs_name, len(pages), nhit)
            if len(fresh):
                obs.add(f"model.{self.obs_name}.cold_misses", float(len(fresh)))
        return hit_mask

    def access(self, page: int) -> bool:
        """Touch one page; returns True on a TLB hit."""
        return bool(self.access_batch(np.array([page], np.int64))[0])

    def access_sequence(self, pages: Iterable[int]) -> int:
        """Touch a sequence of pages; returns the number of misses."""
        arr = np.fromiter(pages, dtype=np.int64)
        before = self.misses
        self.access_batch(arr)
        return self.misses - before

    def contains(self, page: int) -> bool:
        """Whether a translation is cached, without touching LRU state."""
        return self._cache.contains(page)

    def resident_pages(self) -> np.ndarray:
        """Cached translations in LRU-to-MRU order."""
        return self._cache.resident_lines()

    @property
    def occupancy(self) -> int:
        return self._cache.occupancy

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.misses / total
