"""A FAST-style implicit BFS search tree (Kim et al., SIGMOD 2010 [24]).

The paper's related work (Section 2.2) lists FAST among the
GPU-optimized index structures.  FAST stores a binary search tree in
breadth-first (Eytzinger) order: the root at slot 1, node ``k``'s
children at ``2k`` and ``2k+1``.  Compared to binary search over the
sorted array, the layout concentrates the hot upper levels into a few
contiguous cachelines, so they stay resident; compared to a B+tree it
needs no separator logic.  (Real FAST adds hierarchical page/SIMD
blocking; this model keeps the plain Eytzinger layout and documents the
difference.)

Like the other indexes, the tree is *implicit* over the sorted column:
the key of BFS slot ``k`` is computable from ``k`` alone, so a 120 GiB
tree costs no real memory -- but its simulated footprint (a full BFS copy
of the keys, padded to a complete tree) is charged to host memory.

Not part of the paper's evaluated quartet; used by the extension
experiments and available through the planner.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..data.column import KEY_DTYPE, MAX_KEY, Comparands
from ..data.relation import Relation
from ..errors import SimulationError
from ..hardware.memory import MemorySpace, SystemMemory
from ..perf.analytic import level_sweep_pages
from ..units import KEY_BYTES
from .base import Index, TraceRecorder
from .domain import clamped_int64

class FastTreeIndex(Index):
    """Implicit Eytzinger-layout binary search tree over a sorted column."""

    name = "FAST tree"
    supports_updates = False
    # Divergent one-lookup-per-lane traversal, like plain binary search.
    tlb_replay_factor = 8.0

    def __init__(self, relation: Relation):
        super().__init__(relation)
        n = len(self.column)
        #: tree height: levels of the padded complete tree.
        self.tree_height = max(1, math.ceil(math.log2(n + 1)))
        #: slots of the padded complete tree (1-based BFS, slot 0 unused).
        self.padded_slots = (1 << self.tree_height) - 1
        self._allocation = None
        self._placed = False

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        # A BFS copy of the keys, padded to the complete tree.
        return self.padded_slots * KEY_BYTES

    @property
    def height(self) -> int:
        return self.tree_height

    def place(self, memory: SystemMemory) -> None:
        if self.relation.allocation is None:
            raise SimulationError(
                "place the relation before placing its FAST tree"
            )
        self._allocation = memory.allocate(
            self.footprint_bytes, MemorySpace.HOST, label="FAST tree"
        )
        self._placed = True

    # ------------------------------------------------------------------
    # Implicit BFS <-> rank mapping.
    # ------------------------------------------------------------------

    def _ranks_of_slots(self, slots: np.ndarray) -> np.ndarray:
        """In-order rank of 1-based BFS slots in the padded complete tree.

        Slot ``k`` at depth ``d`` is the ``(k - 2^d)``-th node of its
        level; its subtree spans ``2^(h-d)`` ranks, and the node sits in
        the middle: ``rank = (k - 2^d) * 2^(h-d) + 2^(h-d-1) - 1``.
        """
        slots = slots.astype(np.int64)
        # frexp exponents of 1-based slots are exactly 1..64; the clamp
        # keeps the float-derived depth provably in shift range (NP002).
        depth = clamped_int64(
            np.frexp(slots.astype(np.float64))[1].astype(np.float64) - 1.0,
            0.0,
            63.0,
        )
        level_start = np.int64(1) << depth
        subtree = np.int64(1) << (self.tree_height - depth)
        return (slots - level_start) * subtree + (subtree >> 1) - 1

    def _keys_of_slots(
        self, slots: np.ndarray, comparands: Optional[Comparands] = None
    ) -> np.ndarray:
        """Keys stored at BFS slots; padding slots hold MAX.

        With ``comparands`` (a descent's), their comparands instead, and
        ``past`` in the padding slots.
        """
        key_at, past = self.column.key_at, MAX_KEY
        if comparands is not None:
            key_at, past = comparands.key_at, comparands.past
        ranks = self._ranks_of_slots(slots)
        n = len(self.column)
        exists = ranks < n
        safe = np.where(exists, ranks, 0)
        return np.where(exists, key_at(safe), past)

    # ------------------------------------------------------------------
    # Descent (vectorized Eytzinger lower bound).
    # ------------------------------------------------------------------

    def _lower_bound(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder] = None
    ) -> np.ndarray:
        """Lower bound via the Eytzinger descent's trailing-ones trick.

        The descent computes the lower bound over the MAX-padded
        complete tree; padding ranks start at ``n``, so clamping to
        ``n`` maps "first match is padding" to the insertion point at
        the end of the data.  ``bound_slots == 0`` (no left turn at
        all) means every key is below the probe: lower bound ``n``.
        """
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        comparands = self.column.comparands(keys)
        below = comparands.below
        slots = np.ones(len(keys), dtype=np.int64)
        base = self._allocation.base if recorder is not None else 0
        for __ in range(self.tree_height):  # repro: noqa[PERF001] -- O(height) per-level descent over whole key arrays
            if recorder is not None:
                recorder.record(base + slots * KEY_BYTES)
            went_right = self._keys_of_slots(slots, comparands) < below
            slots = 2 * slots + went_right.astype(np.int64)
        # The last left turn on the search path is the lower bound: drop
        # the trailing 1-bits plus one.
        trailing_one_block = (~slots) & (slots + 1)  # == 1 << trailing_ones
        # log2 of a power of two in [1, 2^63] is exactly 0..63; the
        # clamp makes the float->int64 cast provably in range (NP002).
        shift = clamped_int64(
            np.log2(trailing_one_block.astype(np.float64)), 0.0, 63.0
        )
        bound_slots = slots >> (shift + 1)
        found_mask = bound_slots > 0
        safe_slots = np.where(found_mask, bound_slots, 1)
        if recorder is not None:
            # Verification read of the candidate match.
            recorder.record(base + safe_slots * KEY_BYTES, active=found_mask)
        n = len(self.column)
        ranks = self._ranks_of_slots(safe_slots)
        return np.where(found_mask, np.minimum(ranks, n), np.int64(n))

    # ------------------------------------------------------------------
    # Analytic locality.
    # ------------------------------------------------------------------

    def expected_sweep_pages(
        self,
        window_lookups: float,
        page_bytes: int,
        l2_bytes: int,
        cacheline_bytes: int,
    ) -> float:
        """BFS levels are contiguous arrays; sweep each level once.

        This is FAST's locality advantage over plain binary search: level
        ``d`` occupies a contiguous ``2^d * 8`` bytes, so the upper levels
        fit the L2 and the lower ones sweep like B+tree levels instead of
        scattering like mid-tree jumps.
        """
        total = 0.0
        cumulative = 0
        for depth in range(self.tree_height):  # repro: noqa[PERF001] -- O(height) analytic locality sum, not per-key
            level_bytes = (1 << depth) * KEY_BYTES
            if cumulative + level_bytes <= l2_bytes:
                cumulative += level_bytes
                continue
            cumulative += level_bytes
            total += level_sweep_pages(
                window_lookups=window_lookups,
                span_bytes=level_bytes,
                page_bytes=page_bytes,
            )
        return total
