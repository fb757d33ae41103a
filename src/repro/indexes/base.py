"""Shared index interface and trace recording.

Every index implements one descent, ``_lower_bound(keys, recorder)``:
the first column position whose key is >= each probe.  It serves three
ways:

* ``lookup(keys)`` / ``probe_batch`` run it without a recorder and keep
  the positions whose key equals the probe -- a pure, vectorized
  functional lookup usable at any scale;
* ``trace_lookups(keys)`` runs the same descent with a
  :class:`TraceRecorder`, capturing the byte address of every memory
  access so the machine model can replay it;
* ``probe_range_batch`` runs it once, for the span starts, and gallops
  each span's end over the column from its start.

Every bisection inside a descent -- over the column, node slots or
spline points -- is one :func:`bisect` call, so the round structure
(and with it every recorded midpoint) is defined in one place.

Every probe comparison of a descent goes through the column's
:meth:`~repro.data.column.Column.comparands`, taken once per batch: a
materialized column compares its keys with the probes, a virtual one
compares positions with each probe's O(1) bounds, so a descent over a
virtual column derives no key.  The comparisons have the same truth
values either way, so rounds, midpoints and recorded addresses do not
depend on the column kind; only the equality check of a lookup (and
RadixSpline's interpolation) reads real keys.

One descent for all three guarantees the simulated access pattern is
exactly the access pattern of the functional algorithm, which is the
property the whole reproduction rests on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .. import obs
from ..data.column import KEY_DTYPE, Comparands
from ..data.relation import Relation
from ..errors import SimulationError
from ..gpu.executor import LookupTrace
from ..gpu.simt import SimtCost, divergent_cost
from ..hardware.counters import PerfCounters
from ..hardware.memory import SystemMemory
from ..units import KEY_BYTES


class TraceRecorder:
    """Collects per-step access addresses during a traversal.

    Each call to :meth:`record` adds one traversal step: an int64 address
    array of length ``num_lookups`` with -1 marking lookups that are
    inactive at that step.
    """

    def __init__(self, num_lookups: int):
        if num_lookups <= 0:
            raise SimulationError(
                f"recorder needs a positive lookup count, got {num_lookups}"
            )
        self.num_lookups = num_lookups
        self._steps = []

    def record(
        self, addresses: np.ndarray, active: Optional[np.ndarray] = None
    ) -> None:
        """Record one step.  ``active`` masks lookups participating in it."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if addresses.shape != (self.num_lookups,):
            raise SimulationError(
                f"step must have shape ({self.num_lookups},), got "
                f"{addresses.shape}"
            )
        if active is not None:
            addresses = np.where(active, addresses, np.int64(-1))
        self._steps.append(addresses)

    def strided(self, base, stride: int) -> "RoundRecorder":
        """A :func:`bisect` ``record`` callback: each round reads
        ``base + mid * stride`` (``base`` a scalar or per-lane array)."""

        def record(mid, active):
            self.record(base + mid * stride, active=active)

        return record

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def build(self) -> LookupTrace:
        """Assemble the recorded steps into a :class:`LookupTrace`."""
        if not self._steps:
            matrix = np.empty((0, self.num_lookups), dtype=np.int64)
        else:
            matrix = np.stack(self._steps, axis=0)
        steps_per_lookup = (matrix >= 0).sum(axis=0).astype(np.int64)
        return LookupTrace(
            step_addresses=matrix, steps_per_lookup=steps_per_lookup
        )


#: ``record(mid, active)`` callback of :func:`bisect`.
RoundRecorder = Callable[[np.ndarray, Optional[np.ndarray]], None]


def bisect(
    lo: np.ndarray,
    hi: np.ndarray,
    probes: np.ndarray,
    key_at: Callable[[np.ndarray], np.ndarray],
    strict: bool = True,
    record: Optional[RoundRecorder] = None,
) -> Tuple[np.ndarray, int]:
    """Per-lane bisection of ``[lo, hi)``: final ``lo`` and round count.

    Each lane ends at the first position whose key is >= its probe
    (``strict=True``, a lower bound) or > it (``strict=False``, an upper
    bound), given keys nondecreasing over the lane's range; lanes with
    ``lo >= hi`` keep their ``lo``.  ``key_at(mid)`` returns the key at
    each lane's midpoint; ``record(mid, active)`` sees every round's
    midpoints before the gather, with ``active=None`` when every lane
    takes part; it must not keep ``mid``, which the round goes on to
    reuse.

    Every round uses the midpoint ``(lo + hi) >> 1`` of every lane, so
    the recorded midpoints are those of the textbook masked loop.  A lane
    of width ``w`` stays active for at least ``floor(log2(w + 1))``
    rounds, so the rounds up to that bound for the narrowest lane need no
    mask at all; only the last one or two rounds mask finished lanes.
    """
    if len(lo) == 0:
        return lo, 0
    compare = np.less if strict else np.less_equal
    narrowest = max(int((hi - lo).min()), 0)
    unmasked = (narrowest + 1).bit_length() - 1
    rounds = 0
    while rounds < unmasked:
        rounds += 1
        mid = lo + hi
        mid >>= 1
        if record is not None:
            record(mid, None)
        go_right = compare(key_at(mid), probes)
        hi = np.where(go_right, hi, mid)
        mid += 1
        lo = np.where(go_right, mid, lo)
    while True:
        active = lo < hi
        if not active.any():
            return lo, rounds
        rounds += 1
        mid = lo + hi
        mid >>= 1
        if record is not None:
            record(mid, active)
        go_right = active & compare(key_at(np.where(active, mid, 0)), probes)
        hi = np.where(active & ~go_right, mid, hi)
        mid += 1
        lo = np.where(go_right, mid, lo)


@dataclass
class LookupResult:
    """Outcome of a traced lookup batch.

    Attributes:
        positions: per-key position in the indexed column, -1 if absent.
        trace: the recorded memory accesses.
        simt: warp-instruction cost of executing the batch.
    """

    positions: np.ndarray
    trace: LookupTrace
    simt: SimtCost


class Index(abc.ABC):
    """A secondary index over a relation's sorted key column.

    Lifecycle: construct over a relation (builds the logical structure),
    optionally :meth:`place` it into simulated host memory (reserves
    capacity and fixes addresses), then :meth:`lookup` or
    :meth:`trace_lookups`.

    Class attribute ``name`` labels figures; ``supports_updates`` records
    the paper's Section 6 guidance (Harmonia and the B+tree can absorb
    inserts; binary search and the RadixSpline assume static data).

    ``tlb_replay_factor`` converts last-level-TLB misses into the
    *translation requests* the paper's hardware counters report.  A single
    miss fans out into several requests on real hardware (divergent warps
    replay memory instructions per distinct page, and the uTLB hierarchy
    re-requests); the per-index factors are calibrated against the paper's
    Fig. 4 anchors (~105 requests/key for binary search, ~11.3 for
    Harmonia, at 111 GiB) and absorb TLB-hierarchy effects the single-level
    LRU model does not capture.
    """

    name: str = "index"
    supports_updates: bool = False
    tlb_replay_factor: float = 6.0

    def __init__(self, relation: Relation):
        self.relation = relation
        self.column = relation.column

    # ------------------------------------------------------------------
    # Structure.
    # ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Memory consumed by the index structure, excluding the data."""

    @property
    @abc.abstractmethod
    def height(self) -> int:
        """Number of structure levels a lookup traverses."""

    @abc.abstractmethod
    def place(self, memory: SystemMemory) -> None:
        """Allocate the index structure in simulated host memory.

        The paper stores all index structures in CPU memory and accesses
        them over the interconnect (Section 3.2).  Raises
        :class:`~repro.errors.CapacityError` when the structure does not
        fit -- which is exactly how the paper's B+tree and Harmonia hit
        their reduced R limits.
        """

    @property
    def is_placed(self) -> bool:
        return getattr(self, "_placed", False)

    def _require_placed(self) -> None:
        if not self.is_placed:
            raise SimulationError(
                f"{self.name} must be placed in simulated memory before "
                "tracing lookups"
            )

    # ------------------------------------------------------------------
    # Lookups.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _lower_bound(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder] = None
    ) -> np.ndarray:
        """First column position with key >= probe; ``len(column)`` if none.

        The index's one descent.  With a ``recorder`` it records every
        access it makes, including any separate read of the candidate
        match (the INLJ fetches it anyway; Harmonia's leaf-node read
        already covers it).
        """

    def _find(
        self, keys: np.ndarray, recorder: Optional[TraceRecorder]
    ) -> np.ndarray:
        """Equality lookup: the lower bound, kept where its key matches."""
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        return self._match(keys, self._lower_bound(keys, recorder))

    def _match(self, keys: np.ndarray, lower: np.ndarray) -> np.ndarray:
        """``lower`` where the column holds the probe there, else -1."""
        in_range = lower < len(self.column)
        found = in_range & (
            self.column.key_at(np.where(in_range, lower, 0)) == keys
        )
        return np.where(found, lower, np.int64(-1))

    def _bisect_column(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        comparands: Comparands,
        recorder: Optional[TraceRecorder],
    ) -> Tuple[np.ndarray, int]:
        """Lower-bound bisection of the column over per-lane ``[lo, hi)``.

        Returns the final ``lo`` and the round count.  A recorded search
        reads one column key per round and then, where ``lo`` is inside
        the column, the candidate match (the verification read).
        """
        key_at, below = comparands.key_at, comparands.below
        if recorder is None:
            return bisect(lo, hi, below, key_at)
        allocation = self.relation.allocation
        base = allocation.base if allocation is not None else 0
        lo, rounds = bisect(
            lo, hi, below, key_at, record=recorder.strided(base, KEY_BYTES)
        )
        in_range = lo < len(self.column)
        recorder.record(
            base + np.where(in_range, lo, 0) * KEY_BYTES, active=in_range
        )
        return lo, rounds

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Functional lookup: position of each key in the column, -1 if absent."""
        keys = np.asarray(keys)
        if len(keys) == 0:
            return np.empty(0, dtype=np.int64)
        if obs.enabled():
            obs.add("index.lookups", float(len(keys)), index=self.name)
            obs.add("index.lookup_batches", index=self.name)
        return self._find(keys, recorder=None)

    # ------------------------------------------------------------------
    # Batch probes.
    # ------------------------------------------------------------------

    def probe_batch(
        self, keys: np.ndarray, out: np.ndarray, offset: int = 0
    ) -> PerfCounters:
        """Batch probe into a caller-owned output buffer.

        Writes the position of each key (-1 on miss) into
        ``out[offset : offset + len(keys)]`` -- no result allocation, no
        concatenation -- and returns the batch's :class:`PerfCounters`
        delta.  The counters are *structural* (``lookups`` and a
        height-based access count), derived only from the batch size and
        the index geometry; replayed cache/TLB counters remain the job
        of :meth:`trace_lookups`.
        """
        keys = np.asarray(keys, dtype=KEY_DTYPE)
        count = len(keys)
        if out.ndim != 1 or out.dtype != np.int64:
            raise SimulationError(
                f"probe_batch needs a 1-D int64 output buffer, got "
                f"{out.ndim}-D {out.dtype}"
            )
        if offset < 0 or offset + count > len(out):
            raise SimulationError(
                f"output window [{offset}, {offset + count}) exceeds the "
                f"buffer of {len(out)} positions"
            )
        if count == 0:
            return PerfCounters()
        view = out[offset : offset + count]
        if obs.enabled():
            with obs.span("index.probe_batch", index=self.name,
                          lookups=count):
                view[:] = self._find(keys, recorder=None)
            obs.add("index.batch_lookups", float(count), index=self.name)
            obs.add("index.batch_kernels", index=self.name)
        else:
            view[:] = self._find(keys, recorder=None)
        return self._batch_counters(count)

    def _batch_counters(self, count: int) -> PerfCounters:
        """Structural counter delta for a batch of ``count`` keys."""
        return PerfCounters(
            lookups=float(count),
            memory_accesses=float(count * self.height),
            # int64 positions are key-sized (8 B each).
            result_bytes=float(count * KEY_BYTES),
        )

    def _range_bounds(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-key [start, end) span of column keys in ``[lo, hi]``.

        ``start`` is the lower bound of ``lo`` -- the batch's one index
        descent.  ``end``, the first position at or after ``start`` whose
        key exceeds ``hi``, lies a span away from ``start``, so it is
        galloped from there instead of descended to: read the column at
        ``start + 2**k - 1`` for k = 0, 1, 2, ... while the key is
        ``<= hi``, then bisect the last bracket.  A span of ``s`` keys
        costs about ``2 * log2(s + 1) + 1`` column reads.  Inverted
        inputs (``lo > hi``) stop at the first read and produce the
        empty span ``[start, start)``.
        """
        starts = self._lower_bound(lo)
        return starts, self._gallop_ends(starts, hi)

    def _gallop_ends(self, starts: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """First position ``>= starts`` whose key is ``> hi``, per lane.

        Round ``k`` reads ``start + 2**k - 1`` (clamped into the column;
        reads past it count as above ``hi``) for the lanes still going.
        A lane that stops at round ``k`` has its end in the bracket
        ``[start + 2**k // 2, start + 2**k - 1)``, cut at ``n``, which
        one upper-bound :func:`bisect` settles.  Reads compare the
        column's comparands (see :class:`~repro.data.column.Comparands`).
        """
        n = len(self.column)
        key_at, _, at_or_below, _ = self.column.comparands(hi)
        stop_round = np.zeros(len(starts), dtype=np.int64)
        lanes = np.arange(len(starts))
        probes, bounds = starts, at_or_below
        k = 0
        while len(lanes):
            going = key_at(np.minimum(probes, n - 1)) <= bounds
            going &= probes < n
            k += 1
            lanes = lanes[going]
            stop_round[lanes] = k
            probes = probes[going] + (1 << (k - 1))
            bounds = bounds[going]
        step = 1 << stop_round
        bottom = starts + (step >> 1)
        top = np.minimum(starts + (step - 1), n)
        wide = np.flatnonzero(bottom < top)
        if len(wide):
            bottom[wide], _ = bisect(
                bottom[wide], top[wide], at_or_below[wide], key_at,
                strict=False,
            )
        return bottom

    def probe_range_batch(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        out_start: np.ndarray,
        out_end: np.ndarray,
        offset: int = 0,
    ) -> PerfCounters:
        """Batch range probe (the non-equi primitive) into span buffers.

        Writes, for each key pair, the half-open span ``[start, end)``
        of column positions whose keys fall in ``[lo[i], hi[i]]`` into
        ``out_start[offset : offset + count]`` /
        ``out_end[offset : offset + count]``, and returns the batch's
        structural :class:`PerfCounters` delta (see
        :meth:`_range_batch_counters`).  The batch runs one lower-bound
        descent and gallops the ends (:meth:`_range_bounds`).
        """
        lo = np.asarray(lo, dtype=KEY_DTYPE)
        hi = np.asarray(hi, dtype=KEY_DTYPE)
        count = len(lo)
        if len(hi) != count:
            raise SimulationError(
                f"range bounds must have equal length: {count} != {len(hi)}"
            )
        for buffer, label in ((out_start, "start"), (out_end, "end")):  # repro: noqa[PERF001] -- two-element argument validation, not per-key work
            if buffer.ndim != 1 or buffer.dtype != np.int64:
                raise SimulationError(
                    f"probe_range_batch needs 1-D int64 {label} buffers, "
                    f"got {buffer.ndim}-D {buffer.dtype}"
                )
            if offset < 0 or offset + count > len(buffer):
                raise SimulationError(
                    f"output window [{offset}, {offset + count}) exceeds "
                    f"the {label} buffer of {len(buffer)} positions"
                )
        if count == 0:
            return PerfCounters()
        start_view = out_start[offset : offset + count]
        end_view = out_end[offset : offset + count]
        if obs.enabled():
            with obs.span("index.probe_range_batch", index=self.name,
                          lookups=count):
                start_view[:], end_view[:] = self._range_bounds(lo, hi)
            obs.add("index.range_lookups", float(count), index=self.name)
            obs.add("index.range_kernels", index=self.name)
        else:
            start_view[:], end_view[:] = self._range_bounds(lo, hi)
        return self._range_batch_counters(count)

    def _range_batch_counters(self, count: int) -> PerfCounters:
        """Structural counter delta for ``count`` range probes.

        Priced as two lower-bound descents (lo and hi), twice
        :meth:`probe_batch`'s access count, plus two int64 span endpoints
        per pair.  Like every structural counter this is a function of
        batch size and height only, not of the functional path, which
        descends once and gallops the ends.
        """
        return PerfCounters(
            lookups=float(count),
            memory_accesses=float(2 * count * self.height),
            result_bytes=float(2 * count * KEY_BYTES),
        )

    def trace_lookups(self, keys: np.ndarray) -> LookupResult:
        """Lookup with full access tracing for the machine model."""
        self._require_placed()
        keys = np.asarray(keys)
        if len(keys) == 0:
            raise SimulationError("cannot trace an empty lookup batch")
        if not obs.enabled():
            recorder = TraceRecorder(len(keys))
            positions = self._find(keys, recorder=recorder)
            trace = recorder.build()
            simt = self._simt_cost(trace.steps_per_lookup)
            return LookupResult(positions=positions, trace=trace, simt=simt)
        with obs.span("index.probe", index=self.name, lookups=len(keys)) as probe:
            recorder = TraceRecorder(len(keys))
            positions = self._find(keys, recorder=recorder)
            trace = recorder.build()
            simt = self._simt_cost(trace.steps_per_lookup)
            probe.set("steps", trace.num_steps)
        obs.add("index.traced_lookups", float(len(keys)), index=self.name)
        obs.add(
            "index.trace_accesses",
            float(trace.total_accesses),
            index=self.name,
        )
        obs.add("index.trace_steps", float(trace.num_steps), index=self.name)
        return LookupResult(positions=positions, trace=trace, simt=simt)

    def _simt_cost(self, steps_per_lookup: np.ndarray) -> SimtCost:
        """SIMT accounting; one thread per lookup unless overridden."""
        return divergent_cost(steps_per_lookup, warp_size=32)

    # ------------------------------------------------------------------
    # Analytic locality (partition-ordered TLB model; see
    # repro.perf.analytic for why this is closed-form).
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def expected_sweep_pages(
        self,
        window_lookups: float,
        page_bytes: int,
        l2_bytes: int,
        cacheline_bytes: int,
    ) -> float:
        """Expected distinct TLB pages touched by one partition-ordered
        window of ``window_lookups`` lookups."""
