"""Binary search over the sorted base column.

The simplest of the paper's four access paths: no auxiliary structure at
all; every lookup bisects the full column, touching ``~log2(N)`` positions
scattered across the whole relation.  That scatter is why binary search is
the worst TLB citizen in the paper's Fig. 4 (~105 translation requests per
lookup at 111 GiB) and why it benefits so much from partitioned lookups.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .. import obs
from ..data.column import KEY_DTYPE
from ..data.relation import Relation
from ..errors import SimulationError
from ..hardware.memory import SystemMemory
from ..perf.analytic import midtree_sweep_pages
from .base import Index, TraceRecorder


class BinarySearchIndex(Index):
    """Lower-bound binary search directly on the relation's key column."""

    name = "binary search"
    supports_updates = False
    # Calibrated to the paper's Fig. 4: ~105 translation requests per key
    # at 111 GiB over ~13 last-level misses per lookup.
    tlb_replay_factor = 8.0

    def __init__(self, relation: Relation):
        super().__init__(relation)
        self._placed = False

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    def footprint_bytes(self) -> int:
        return 0  # searches the base relation in place

    @property
    def height(self) -> int:
        return max(1, math.ceil(math.log2(len(self.column) + 1)))

    def place(self, memory: SystemMemory) -> None:
        """No structure to allocate; only requires the relation be placed."""
        if self.relation.allocation is None:
            raise SimulationError(
                "binary search needs the relation placed in host memory "
                "before tracing"
            )
        self._placed = True

    # ------------------------------------------------------------------
    # Descent.
    # ------------------------------------------------------------------

    def _lower_bound(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder] = None
    ) -> np.ndarray:
        """Vectorized lower-bound bisection of the full column."""
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        lower, rounds = self._bisect_column(
            np.zeros(len(keys), dtype=np.int64),
            np.full(len(keys), len(self.column), dtype=np.int64),
            self.column.comparands(keys),
            recorder,
        )
        if obs.enabled():
            obs.add("index.search_rounds", float(rounds), index=self.name)
        return lower

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
        return midtree_sweep_pages(
            window_lookups=window_lookups,
            span_bytes=self.column.nbytes,
            page_bytes=page_bytes,
            l2_bytes=l2_bytes,
            cacheline_bytes=cacheline_bytes,
        )
