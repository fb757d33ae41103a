"""Range-probe suite (the non-equi primitive) vs a ``searchsorted`` oracle.

``probe_range_batch`` for every index, driven through the adversarial
regimes of tests/indexes/test_differential.py:

* per-key [start, end) spans over the sorted base, and the lower-bound
  descent behind them, match ``searchsorted`` -- on materialized and
  virtual columns, including the gallop's edges (spans reaching ``n``,
  ``start == n``, bands wider than the key span or saturated at the
  domain ends, inverted bounds);
* one lower-bound descent per batch: each span's end is galloped from
  its start, not descended to;
* structural :class:`PerfCounters`: ``2 * height`` accesses and two
  int64 span endpoints per pair, a pure function of batch size and
  height.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.data.column import MaterializedColumn, VirtualSortedColumn  # noqa: E402
from repro.data.relation import Relation  # noqa: E402
from repro.errors import SimulationError  # noqa: E402
from repro.indexes.domain import saturating_band  # noqa: E402

from .test_differential import INDEX_TYPES, MAX_KEY, workloads  # noqa: E402

EPSILONS = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=2**30, max_value=2**34),
    st.just(2**63),
)


def build_index(index_cls, keys: np.ndarray):
    return index_cls(Relation(name="R", column=MaterializedColumn(keys)))


def oracle_range(keys, lo, hi):
    """Reference spans: searchsorted over the raw sorted key array."""
    starts = np.searchsorted(keys, lo, side="left").astype(np.int64)
    ends = np.searchsorted(keys, hi, side="right").astype(np.int64)
    return starts, np.maximum(starts, ends)


def band_bounds(probes, epsilon):
    lo, hi = saturating_band(probes, np.uint64(epsilon))
    return lo.astype(np.uint64), hi.astype(np.uint64)


@pytest.mark.parametrize("index_cls", INDEX_TYPES)
class TestRangeBatchNumpy:
    @given(workload=workloads(), epsilon=EPSILONS)
    def test_spans_match_searchsorted_oracle(
        self, index_cls, workload, epsilon
    ):
        keys, probes = workload
        index = build_index(index_cls, keys)
        lo, hi = band_bounds(probes, epsilon)
        starts = np.empty(len(probes), dtype=np.int64)
        ends = np.empty(len(probes), dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends)
        want_start, want_end = oracle_range(keys, lo, hi)
        np.testing.assert_array_equal(
            starts, want_start,
            err_msg=f"{index_cls.name} span starts diverge from the oracle",
        )
        np.testing.assert_array_equal(
            ends, want_end,
            err_msg=f"{index_cls.name} span ends diverge from the oracle",
        )

    @given(workload=workloads())
    @settings(max_examples=20)
    def test_lower_bound_matches_searchsorted(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        np.testing.assert_array_equal(
            index._lower_bound(probes.astype(np.uint64)),
            np.searchsorted(keys, probes, side="left").astype(np.int64),
            err_msg=f"{index_cls.name} lower bound diverges",
        )

    @given(workload=workloads())
    @settings(max_examples=20)
    def test_offset_window(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        lo, hi = band_bounds(probes, 3)
        starts = np.full(len(probes) + 7, -7, dtype=np.int64)
        ends = np.full(len(probes) + 7, -7, dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends, offset=4)
        want_start, want_end = oracle_range(keys, lo, hi)
        np.testing.assert_array_equal(
            starts[4 : 4 + len(probes)], want_start
        )
        np.testing.assert_array_equal(ends[4 : 4 + len(probes)], want_end)
        # The windows' surroundings are untouched.
        for buffer in (starts, ends):
            assert (buffer[:4] == -7).all()
            assert (buffer[4 + len(probes) :] == -7).all()

    @given(workload=workloads())
    @settings(max_examples=20)
    def test_counters_are_structural(self, index_cls, workload):
        keys, probes = workload
        index = build_index(index_cls, keys)
        lo, hi = band_bounds(probes, 5)
        starts = np.empty(len(probes), dtype=np.int64)
        ends = np.empty(len(probes), dtype=np.int64)
        counters = index.probe_range_batch(lo, hi, starts, ends)
        counters.validate()
        assert counters.lookups == float(len(probes))
        assert counters.memory_accesses == float(
            2 * len(probes) * index.height
        )
        assert counters.result_bytes == float(2 * len(probes) * 8)
        again = index.probe_range_batch(lo, hi, starts, ends)
        assert counters.as_dict() == again.as_dict()

    def test_inverted_bounds_give_empty_spans(self, index_cls):
        keys = np.arange(10, 90, dtype=np.uint64)
        index = build_index(index_cls, keys)
        lo = np.asarray([50, 80], dtype=np.uint64)
        hi = np.asarray([40, 20], dtype=np.uint64)
        starts = np.empty(2, dtype=np.int64)
        ends = np.empty(2, dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends)
        assert (ends == starts).all()

    def test_buffer_validation(self, index_cls):
        index = build_index(index_cls, np.arange(1, 9, dtype=np.uint64))
        lo = np.asarray([1, 2, 3], dtype=np.uint64)
        hi = lo + np.uint64(1)
        good = np.empty(3, dtype=np.int64)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi[:2], good, good.copy())
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, np.empty(3, np.float64), good)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, good, np.empty((3, 1), np.int64))
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, np.empty(2, np.int64), good)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, good, good.copy(), offset=1)
        with pytest.raises(SimulationError):
            index.probe_range_batch(lo, hi, good, good.copy(), offset=-1)

    def test_empty_batch_touches_nothing(self, index_cls):
        index = build_index(index_cls, np.arange(1, 9, dtype=np.uint64))
        starts = np.full(4, -7, dtype=np.int64)
        ends = np.full(4, -7, dtype=np.int64)
        empty = np.empty(0, dtype=np.uint64)
        counters = index.probe_range_batch(empty, empty, starts, ends)
        assert counters.lookups == 0.0
        assert (starts == -7).all()
        assert (ends == -7).all()


def test_virtual_column_spans_match_oracle():
    """The range probe over an implicit column (key_at, no key array)."""
    relation = Relation(name="R", column=VirtualSortedColumn(num_keys=64))
    keys = relation.column.key_at(np.arange(64))
    probes = keys[np.asarray([0, 7, 31, 63])]
    lo, hi = band_bounds(probes, 2)
    for index_cls in INDEX_TYPES:
        index = index_cls(relation)
        starts = np.empty(4, dtype=np.int64)
        ends = np.empty(4, dtype=np.int64)
        index.probe_range_batch(lo, hi, starts, ends)
        want_start, want_end = oracle_range(keys, lo, hi)
        np.testing.assert_array_equal(starts, want_start)
        np.testing.assert_array_equal(ends, want_end)


def edge_bounds(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """(lo, hi) pairs at the gallop's edges over sorted ``keys``."""
    n = len(keys)
    first, last, middle = int(keys[0]), int(keys[-1]), int(keys[n // 2])
    pairs = [
        (0, MAX_KEY),  # wider than the whole key span: [0, n)
        (first, last),  # exactly the whole column
        (middle, MAX_KEY),  # saturated at the top: ends at n
        (middle, last),  # ends at n on the last key
        (last, last),  # the last key alone
        (min(last + 1, MAX_KEY), MAX_KEY),  # start == n unless last is MAX
        (MAX_KEY, MAX_KEY),
        (0, 0),  # saturated at the bottom
        (0, first),
        (0, middle),
        (first, first),
        (last, first),  # inverted
        (middle, first),  # inverted
        (MAX_KEY, 0),  # inverted across the whole domain
    ]
    lo = np.asarray([pair[0] for pair in pairs], dtype=np.uint64)
    hi = np.asarray([pair[1] for pair in pairs], dtype=np.uint64)
    return lo, hi


def assert_spans_match(index, keys, lo, hi):
    starts = np.empty(len(lo), dtype=np.int64)
    ends = np.empty(len(lo), dtype=np.int64)
    index.probe_range_batch(lo, hi, starts, ends)
    want_start, want_end = oracle_range(keys, lo, hi)
    np.testing.assert_array_equal(
        starts, want_start, err_msg=f"{index.name} span starts diverge"
    )
    np.testing.assert_array_equal(
        ends, want_end, err_msg=f"{index.name} span ends diverge"
    )


def edge_columns():
    """A materialized column holding both domain ends, and a virtual one
    tall enough for multi-level trees."""
    rng = np.random.default_rng(5)
    inner = rng.integers(1, MAX_KEY, size=3000, dtype=np.uint64)
    keys = np.unique(
        np.concatenate([inner, np.asarray([0, MAX_KEY], dtype=np.uint64)])
    )
    virtual = VirtualSortedColumn(num_keys=70_000, stride=7, offset=5, seed=3)
    return [MaterializedColumn(keys), virtual]


@pytest.mark.parametrize("index_cls", INDEX_TYPES)
@pytest.mark.parametrize("column", edge_columns(), ids=["materialized", "virtual"])
def test_edge_spans_match_oracle(index_cls, column):
    keys = column.key_at(np.arange(len(column)))
    index = index_cls(Relation(name="R", column=column))
    lo, hi = edge_bounds(keys)
    assert_spans_match(index, keys, lo, hi)


@pytest.mark.parametrize("index_cls", INDEX_TYPES)
@given(
    num_keys=st.integers(min_value=1, max_value=5000),
    stride=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    widths=st.lists(
        st.one_of(
            st.integers(min_value=-64, max_value=64),
            st.integers(min_value=-(2**20), max_value=2**20),
        ),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=20)
def test_virtual_spans_match_oracle(index_cls, num_keys, stride, seed, widths):
    """Random (possibly inverted) bands over implicit columns, whose
    ``key_at`` rejects any position outside the column."""
    column = VirtualSortedColumn(num_keys=num_keys, stride=stride, seed=seed)
    keys = column.key_at(np.arange(num_keys))
    rng = np.random.default_rng(seed)
    top = int(keys[-1]) + 2 * stride
    lo = rng.integers(0, top, size=len(widths), dtype=np.int64)
    hi = np.clip(lo + np.asarray(widths, dtype=np.int64), 0, None)
    index = index_cls(Relation(name="R", column=column))
    assert_spans_match(
        index, keys, lo.astype(np.uint64), hi.astype(np.uint64)
    )


@pytest.mark.parametrize("index_cls", INDEX_TYPES)
def test_one_descent_per_batch(index_cls, monkeypatch):
    """A range batch runs the index descent once, for the lower bounds;
    every end is galloped over the column from its start."""
    keys = np.arange(7, 60_000, 3, dtype=np.uint64)
    index = build_index(index_cls, keys)
    descend = index._lower_bound
    calls = []

    def spy(probes, recorder=None):
        calls.append(len(probes))
        return descend(probes, recorder)

    monkeypatch.setattr(index, "_lower_bound", spy)
    probes = keys[::97]
    lo, hi = band_bounds(probes, 30)
    assert_spans_match(index, keys, lo, hi)
    assert calls == [len(probes)]
