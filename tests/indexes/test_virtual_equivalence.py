"""Every index traces a virtual column exactly as it traces its keys.

Descents over a :class:`VirtualSortedColumn` compare positions with each
probe's O(1) bounds instead of hashing a key per comparison
(:meth:`~repro.data.column.Column.comparands`).  That is sound only if
every comparison keeps its truth value, so this suite builds each index
twice -- over a virtual column and over a :class:`MaterializedColumn` of
the same keys, placed at the same addresses -- and requires identical
positions, recorded step addresses and range spans.  It also pins the
point of the change: a traced virtual descent derives only a handful of
keys per lane, not one per round.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data.column import (  # noqa: E402
    MaterializedColumn,
    VirtualSortedColumn,
)
from repro.data.relation import Relation  # noqa: E402
from repro.hardware.memory import MemorySpace, SystemMemory  # noqa: E402
from repro.hardware.spec import V100_NVLINK2  # noqa: E402
from repro.indexes import ALL_INDEX_TYPES, EXTENSION_INDEX_TYPES  # noqa: E402
from repro.indexes.radix_spline import RadixSplineIndex  # noqa: E402

INDEX_TYPES = ALL_INDEX_TYPES + EXTENSION_INDEX_TYPES
MAX_KEY = 2**64 - 1


def placed(index_cls, column):
    """``index_cls`` over ``column``, placed in a fresh host memory."""
    relation = Relation(name="R", column=column)
    memory = SystemMemory(V100_NVLINK2)
    relation.place(memory, MemorySpace.HOST)
    kwargs = {}
    if index_cls is RadixSplineIndex:
        # The uniform spline is the one a virtual column gets; fit the
        # copy the same way so both have the same points.
        kwargs["fit"] = "uniform"
    index = index_cls(relation, **kwargs)
    index.place(memory)
    return index


def twins(index_cls, num_keys, stride, offset, seed):
    virtual = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    keys = virtual.key_at(np.arange(num_keys, dtype=np.int64))
    return (
        placed(index_cls, virtual),
        placed(index_cls, MaterializedColumn(keys)),
    )


def probes_for(column, rng, count=300):
    """Members, near-misses, both ends of the column and of the domain."""
    n = len(column)
    members = column.key_at(rng.integers(0, n, size=count))
    ends = column.key_at(np.asarray([0, n - 1]))
    return np.concatenate(
        [
            members,
            members + np.uint64(1),
            members - np.uint64(1),
            ends,
            ends + np.uint64(1),
            np.asarray([0, 2**63 - 1, 2**63, MAX_KEY], dtype=np.uint64),
        ]
    )


@pytest.mark.parametrize("index_cls", INDEX_TYPES, ids=lambda c: c.__name__)
@settings(max_examples=15, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=6000),
    stride=st.integers(min_value=1, max_value=7),
    offset=st.sampled_from([0, 9, 2**40]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_traces_match_materialized_copy(
    index_cls, num_keys, stride, offset, seed
):
    virtual, materialized = twins(index_cls, num_keys, stride, offset, seed)
    probes = probes_for(virtual.column, np.random.default_rng(seed))
    got = virtual.trace_lookups(probes)
    want = materialized.trace_lookups(probes)
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(
        got.trace.step_addresses, want.trace.step_addresses
    )
    assert got.simt.warp_instructions == want.simt.warp_instructions


@pytest.mark.parametrize("index_cls", INDEX_TYPES, ids=lambda c: c.__name__)
@settings(max_examples=15, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=6000),
    stride=st.integers(min_value=1, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31),
    width=st.sampled_from([0, 1, 5, 100, 10**6]),
)
def test_range_spans_match_materialized_copy(
    index_cls, num_keys, stride, seed, width
):
    """One descent plus the gallop over comparands: same spans."""
    virtual, materialized = twins(index_cls, num_keys, stride, 0, seed)
    lo = probes_for(virtual.column, np.random.default_rng(seed), count=100)
    hi = lo + np.minimum(np.uint64(width), np.uint64(MAX_KEY) - lo)
    count = len(lo)
    spans = []
    for index in (virtual, materialized):
        start = np.empty(count, dtype=np.int64)
        end = np.empty(count, dtype=np.int64)
        index.probe_range_batch(lo, hi, start, end)
        spans.append((start, end))
    np.testing.assert_array_equal(spans[0][0], spans[1][0])
    np.testing.assert_array_equal(spans[0][1], spans[1][1])


@pytest.mark.parametrize("index_cls", INDEX_TYPES, ids=lambda c: c.__name__)
def test_traced_virtual_descent_derives_few_keys(index_cls, monkeypatch):
    """A traced lookup over 2^20 virtual keys hashes at most four keys
    per lane (its bounds, the match check and, for the RadixSpline, the
    two interpolation points) where bisecting keys hashed one a round."""
    column = VirtualSortedColumn(2**20, stride=8, seed=3)
    index = placed(index_cls, column)
    probes = probes_for(column, np.random.default_rng(1), count=2000)
    derived = []
    original = VirtualSortedColumn.key_at

    def counting_key_at(self, positions):
        keys = original(self, positions)
        derived.append(keys.size)
        return keys

    monkeypatch.setattr(VirtualSortedColumn, "key_at", counting_key_at)
    result = index.trace_lookups(probes)
    monkeypatch.undo()
    assert sum(derived) <= 4 * len(probes)
    assert result.trace.num_steps > 4
    np.testing.assert_array_equal(
        result.positions, column.rank_of(probes)
    )
