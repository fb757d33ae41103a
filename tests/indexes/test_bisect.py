"""The shared bisection kernel and Harmonia's fixed-step node search.

``bisect`` sits under every recorded index descent, so two properties
are checked directly rather than only through whole lookups:

* its answer equals ``np.searchsorted`` over each lane's own slice, for
  both ``strict`` settings, with empty and inverted lanes left as they
  are;
* ``record`` sees exactly the midpoints and active lanes of the
  textbook masked loop (kept below as the reference), which is what
  keeps every recorded trace unchanged.

Harmonia's ``_node_child_counts`` is a fixed-trip power-of-two search
whose last trips may step past the node's end; it is checked at several
node widths, powers of two and not, against ``np.searchsorted`` over
the node's slot keys, and whole lookups at the same widths against the
sorted-array oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.data.column import MaterializedColumn, VirtualSortedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.indexes.base import bisect  # noqa: E402
from repro.indexes.harmonia import HarmoniaIndex  # noqa: E402

from .test_differential import oracle_lookup, workloads  # noqa: E402

#: Node widths: the paper's 32, the minimum, and non-powers of two.
NODE_KEYS = (2, 3, 5, 24, 32, 64)


def masked_bisect(lo, hi, probes, keys, strict):
    """Reference: the masked loop every descent ran before the kernel.

    Returns the narrowed ``lo`` and the per-round (midpoints, active)
    pairs.
    """
    lo = lo.copy()
    hi = hi.copy()
    rounds = []
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        rounds.append((mid, active))
        mid_keys = keys[np.where(active, mid, 0)]
        if strict:
            go_right = active & (mid_keys < probes)
        else:
            go_right = active & (mid_keys <= probes)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
        active = lo < hi
    return lo, rounds


@st.composite
def bisect_cases(draw):
    """Sorted keys (duplicates allowed), per-lane ranges and probes."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    n = draw(st.integers(min_value=1, max_value=300))
    lanes = draw(st.integers(min_value=1, max_value=200))
    shape = draw(st.sampled_from(["full", "windows", "mixed"]))
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.integers(0, 4 * n, size=n)).astype(np.uint64)
    if shape == "full":
        lo = np.zeros(lanes, dtype=np.int64)
        hi = np.full(lanes, n, dtype=np.int64)
    elif shape == "windows":
        width = int(rng.integers(0, n + 1))
        lo = rng.integers(0, n - width + 1, size=lanes).astype(np.int64)
        hi = lo + width
    else:
        # Independent endpoints: empty (lo == hi) and inverted
        # (lo > hi) lanes mixed with ordinary ones.
        lo = rng.integers(0, n + 1, size=lanes).astype(np.int64)
        hi = rng.integers(0, n + 1, size=lanes).astype(np.int64)
        empty = rng.random(lanes) < 0.2
        hi[empty] = lo[empty]
    probes = np.concatenate(
        [
            keys[rng.integers(0, n, size=lanes)],
            rng.integers(0, 4 * n + 2, size=lanes).astype(np.uint64),
        ]
    )[rng.permutation(2 * lanes)[:lanes]]
    strict = draw(st.booleans())
    return keys, lo, hi, probes, strict


def run_kernel(keys, lo, hi, probes, strict):
    """Kernel result, round count and recorded (midpoints, active)."""
    seen = []

    def record(mid, active):
        seen.append((mid.copy(), None if active is None else active.copy()))

    before = lo.copy(), hi.copy()
    result, rounds = bisect(
        lo, hi, probes, lambda mid: keys[mid], strict=strict, record=record
    )
    # The inputs are left as they were.
    np.testing.assert_array_equal(lo, before[0])
    np.testing.assert_array_equal(hi, before[1])
    return result, rounds, seen


class TestBisectKernel:
    @given(case=bisect_cases())
    def test_matches_searchsorted_per_slice(self, case):
        keys, lo, hi, probes, strict = case
        result, _, _ = run_kernel(keys, lo, hi, probes, strict)
        side = "left" if strict else "right"
        for lane in range(len(lo)):
            start, end = int(lo[lane]), int(hi[lane])
            if start >= end:
                assert result[lane] == start
                continue
            expected = start + int(
                np.searchsorted(keys[start:end], probes[lane], side=side)
            )
            assert result[lane] == expected, (lane, start, end, strict)

    @given(case=bisect_cases())
    def test_record_sees_the_masked_loop_rounds(self, case):
        keys, lo, hi, probes, strict = case
        result, rounds, seen = run_kernel(keys, lo, hi, probes, strict)
        expected, reference = masked_bisect(lo, hi, probes, keys, strict)
        np.testing.assert_array_equal(result, expected)
        assert rounds == len(reference) == len(seen)
        for (mid, active), (ref_mid, ref_active) in zip(seen, reference):
            if active is None:
                # Only an all-active round may skip the mask.
                assert ref_active.all()
                active = ref_active
            np.testing.assert_array_equal(active, ref_active)
            np.testing.assert_array_equal(
                np.where(active, mid, -1), np.where(ref_active, ref_mid, -1)
            )

    def test_empty_batch_runs_no_round(self):
        empty = np.empty(0, dtype=np.int64)
        calls = []
        lo, rounds = bisect(
            empty, empty.copy(), np.empty(0, dtype=np.uint64),
            lambda mid: calls.append(mid),
        )
        assert len(lo) == 0 and rounds == 0 and calls == []

    def test_uniform_width_masks_at_most_one_round(self):
        """A full-column search (width n) leaves only the last round masked."""
        keys = np.arange(1000, dtype=np.uint64) * np.uint64(3)
        lanes = 64
        probes = np.arange(lanes, dtype=np.uint64) * np.uint64(47)
        lo, rounds, seen = run_kernel(
            keys,
            np.zeros(lanes, dtype=np.int64),
            np.full(lanes, len(keys), dtype=np.int64),
            probes,
            True,
        )
        masked = [active for _, active in seen if active is not None]
        assert rounds == len(seen) >= 9
        assert len(masked) <= 1
        np.testing.assert_array_equal(lo, np.searchsorted(keys, probes))


def slot_keys_reference(index, level, nodes):
    """Node slot keys per lane; slots past the data read the last key."""
    child_coverage = (
        index.level_coverage[level + 1]
        if level + 1 < len(index.level_sizes)
        else 1
    )
    slots = np.arange(index.node_keys, dtype=np.int64)
    positions = (nodes[:, None] * index.node_keys + slots) * child_coverage
    positions = np.minimum(positions, len(index.column) - 1)
    return index.column.key_at(positions.ravel()).reshape(positions.shape)


@pytest.mark.parametrize("node_keys", NODE_KEYS)
class TestHarmoniaNodeWidths:
    @given(workload=workloads())
    def test_lookup_matches_oracle(self, node_keys, workload):
        keys, probes = workload
        index = HarmoniaIndex(
            Relation("R", MaterializedColumn(keys)), node_keys=node_keys
        )
        np.testing.assert_array_equal(
            index.lookup(probes), oracle_lookup(keys, probes)
        )
        np.testing.assert_array_equal(
            index._lower_bound(probes), np.searchsorted(keys, probes)
        )

    @given(workload=workloads(), strict=st.booleans())
    def test_node_child_counts_match_searchsorted(
        self, node_keys, workload, strict
    ):
        keys, probes = workload
        index = HarmoniaIndex(
            Relation("R", MaterializedColumn(keys)), node_keys=node_keys
        )
        rng = np.random.default_rng(len(probes))
        side = "left" if strict else "right"
        for level, size in enumerate(index.level_sizes):
            nodes = rng.integers(0, size, size=len(probes)).astype(np.int64)
            counts = index._node_child_counts(level, nodes, probes, strict)
            slot_keys = slot_keys_reference(index, level, nodes)
            expected = [
                np.searchsorted(row, probe, side=side)
                for row, probe in zip(slot_keys, probes)
            ]
            np.testing.assert_array_equal(counts, expected)

    def test_virtual_column_lookup_matches_rank(self, node_keys):
        column = VirtualSortedColumn(2**20, stride=4, seed=5)
        index = HarmoniaIndex(Relation("R", column), node_keys=node_keys)
        rng = np.random.default_rng(node_keys)
        positions = rng.integers(0, len(column), size=4096)
        members = column.key_at(positions)
        probes = np.concatenate([members, members + np.uint64(1)])
        expected = np.concatenate([positions, np.full(4096, -1)])
        np.testing.assert_array_equal(index.lookup(probes), expected)
        np.testing.assert_array_equal(
            index._lower_bound(probes),
            column.bound_positions(probes, side="left"),
        )
