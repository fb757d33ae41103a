"""Key columns: materialized and virtual."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.column import (
    MaterializedColumn,
    VirtualSortedColumn,
    make_column,
)
from repro.errors import ConfigurationError, WorkloadError


class TestMaterializedColumn:
    def test_basic(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert len(column) == 3
        assert column.nbytes == 24
        assert column.min_key == 1
        assert column.max_key == 9

    def test_key_at(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.key_at(np.array([0, 2])).tolist() == [1, 9]

    def test_rank_of_members(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.rank_of(np.array([5, 1, 9])).tolist() == [1, 0, 2]

    def test_rank_of_non_members(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.rank_of(np.array([0, 4, 10])).tolist() == [-1, -1, -1]

    def test_hint_is_exact(self):
        column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
        assert column.hint_error_bound() == 0
        assert column.lower_bound_hint(np.array([6]))[0] == 2

    def test_min_gap(self):
        column = MaterializedColumn(np.array([0, 2, 10], dtype=np.uint64))
        assert column.min_gap == 2

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.array([3, 1, 2], dtype=np.uint64))

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.array([1, 1, 2], dtype=np.uint64))

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.array([], dtype=np.uint64))

    def test_rejects_matrix(self):
        with pytest.raises(ConfigurationError):
            MaterializedColumn(np.zeros((2, 2), dtype=np.uint64))

    def test_keys_view_readonly(self):
        column = MaterializedColumn(np.array([1, 2], dtype=np.uint64))
        with pytest.raises(ValueError):
            column.keys[0] = 0


class TestVirtualSortedColumn:
    def test_deterministic(self):
        a = VirtualSortedColumn(1000, stride=4, seed=7)
        b = VirtualSortedColumn(1000, stride=4, seed=7)
        positions = np.arange(1000)
        assert np.array_equal(a.key_at(positions), b.key_at(positions))

    def test_seed_changes_keys(self):
        a = VirtualSortedColumn(1000, stride=4, seed=7)
        b = VirtualSortedColumn(1000, stride=4, seed=8)
        positions = np.arange(1000)
        assert not np.array_equal(a.key_at(positions), b.key_at(positions))

    def test_strictly_increasing_full_scan(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        keys = column.key_at(np.arange(10_000))
        assert np.all(keys[:-1] < keys[1:])

    def test_min_gap_two_for_stride_four(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        keys = column.key_at(np.arange(10_000))
        gaps = keys[1:] - keys[:-1]
        assert gaps.min() >= 2
        assert column.min_gap == 2

    def test_key_plus_one_never_member(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        keys = column.key_at(np.arange(10_000)) + np.uint64(1)
        assert np.all(column.rank_of(keys) == -1)

    def test_rank_of_roundtrip(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        positions = np.array([0, 17, 9_999])
        assert np.array_equal(
            column.rank_of(column.key_at(positions)), positions
        )

    def test_rank_of_out_of_domain(self):
        column = VirtualSortedColumn(100, stride=4, offset=1000)
        assert column.rank_of(np.array([0, 999, 10**9]))[0] == -1

    def test_hint_within_bound(self):
        column = VirtualSortedColumn(10_000, stride=4, seed=3)
        positions = np.arange(10_000)
        hints = column.lower_bound_hint(column.key_at(positions))
        assert np.all(np.abs(hints - positions) <= column.hint_error_bound())

    def test_offset(self):
        column = VirtualSortedColumn(10, stride=4, offset=100)
        assert column.min_key >= 100

    def test_dense_stride_one(self):
        column = VirtualSortedColumn(100, stride=1)
        assert column.key_at(np.arange(100)).tolist() == list(range(100))

    def test_positions_out_of_range_rejected(self):
        column = VirtualSortedColumn(10)
        with pytest.raises(ConfigurationError):
            column.key_at(np.array([10]))
        with pytest.raises(ConfigurationError):
            column.key_at(np.array([-1]))

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(0)
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(10, stride=0)
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(10, offset=-1)

    def test_rejects_domain_overflow(self):
        with pytest.raises(ConfigurationError):
            VirtualSortedColumn(2**61, stride=8)

    def test_validate_sample(self, rng):
        VirtualSortedColumn(10_000, stride=4).validate_sample(rng)

    def test_sample_positions(self, rng):
        column = VirtualSortedColumn(1000)
        positions = column.sample_positions(rng, 100)
        assert len(positions) == 100
        assert positions.min() >= 0 and positions.max() < 1000

    def test_sample_positions_rejects_negative(self, rng):
        with pytest.raises(WorkloadError):
            VirtualSortedColumn(10).sample_positions(rng, -1)

    def test_paper_scale_footprint(self):
        column = VirtualSortedColumn(num_keys=int(2**33.9))
        assert column.nbytes > 119 * 2**30  # ~120 GiB, nothing allocated


class TestMakeColumn:
    def test_small_materializes(self):
        column = make_column(1000, materialize_threshold=2**20)
        assert isinstance(column, MaterializedColumn)

    def test_large_stays_virtual(self):
        column = make_column(2**21, materialize_threshold=2**20)
        assert isinstance(column, VirtualSortedColumn)

    def test_same_keys_either_way(self):
        virtual = make_column(5000, materialize_threshold=0)
        materialized = make_column(5000, materialize_threshold=10_000)
        positions = np.arange(5000)
        assert np.array_equal(
            virtual.key_at(positions), materialized.key_at(positions)
        )


@settings(max_examples=40, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=5000),
    stride=st.integers(min_value=1, max_value=64),
    offset=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_virtual_column_properties(num_keys, stride, offset, seed):
    """Monotone keys, exact rank recovery, bounded hints -- any params."""
    column = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    positions = np.arange(num_keys, dtype=np.int64)
    keys = column.key_at(positions)
    if num_keys > 1:
        assert np.all(keys[:-1] < keys[1:])
    assert np.array_equal(column.rank_of(keys), positions)
    hints = column.lower_bound_hint(keys)
    assert np.all(np.abs(hints - positions) <= column.hint_error_bound())


def splitmix64_reference(values: np.ndarray) -> np.ndarray:
    """splitmix64 in plain expression form, one temporary per step."""
    z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@settings(max_examples=40, deadline=None)
@given(
    stride=st.integers(min_value=1, max_value=2**20),
    offset=st.integers(min_value=0, max_value=2**40),
    seed=st.integers(min_value=0, max_value=2**63),
    position_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_virtual_keys_match_formula_reference(
    stride, offset, seed, position_seed
):
    """The in-place key computation equals the documented formula bit for
    bit: key(i) = offset + i*stride + splitmix64(i ^ seed_mix) mod g."""
    num_keys = (2**62 - offset) // stride
    column = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    rng = np.random.default_rng(position_seed)
    positions = np.concatenate(
        [[0, num_keys - 1], rng.integers(0, num_keys, size=1000)]
    ).astype(np.int64)
    noise_mod = max(1, stride - 1)
    seed_mix = np.uint64((seed * 0x5851F42D4C957F2D) % 2**64)
    noise = splitmix64_reference(positions.astype(np.uint64) ^ seed_mix) % (
        np.uint64(noise_mod)
    )
    expected = (
        np.uint64(offset)
        + positions.astype(np.uint64) * np.uint64(stride)
        + noise
    )
    np.testing.assert_array_equal(column.key_at(positions), expected)


# ---------------------------------------------------------------------------
# O(1) bounds and comparands of virtual columns.
# ---------------------------------------------------------------------------


def masked_bound_positions(column, keys, side):
    """Reference: the masked ``key_at`` bisection that ``bound_positions``
    ran for every column kind before virtual columns had O(1) bounds."""
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    n = len(column)
    lo = np.zeros(len(keys), dtype=np.int64)
    hi = np.full(len(keys), n, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        mid_keys = column.key_at(np.where(active, mid, 0))
        if side == "left":
            go_right = active & (mid_keys < keys)
        else:
            go_right = active & (mid_keys <= keys)
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)
    return lo


def edge_probes(column, rng, count=200):
    """Every probe class the bounds distinguish: 0, below the offset,
    members, members +/- 1, the last key, past the end and the top of
    the signed and unsigned 64-bit ranges."""
    n = len(column)
    members = column.key_at(rng.integers(0, n, size=count))
    last = column.key_at(np.asarray([n - 1]))
    offset = np.uint64(column.offset)
    fixed = [
        0,
        max(column.offset - 1, 0),
        column.offset,
        int(last[0]) + 1,
        int(last[0]) + column.stride + 7,
        2**63 - 1,
        2**63,
        2**64 - 1,
    ]
    return np.concatenate(
        [
            np.asarray(fixed, dtype=np.uint64),
            offset // np.uint64(2) + np.arange(3, dtype=np.uint64),
            members,
            members + np.uint64(1),
            members - np.uint64(1),
            last,
        ]
    )


@settings(max_examples=60, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=3000),
    stride=st.integers(min_value=1, max_value=7),
    offset=st.sampled_from([0, 1, 5, 1000, 2**40]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_virtual_bounds_match_searchsorted(num_keys, stride, offset, seed):
    """Both O(1) bounds equal ``searchsorted`` over a materialized copy,
    and ``rank_of`` agrees with membership in it."""
    column = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    keys = column.key_at(np.arange(num_keys, dtype=np.int64))
    probes = edge_probes(column, np.random.default_rng(seed))
    for side in ("left", "right"):
        expected = np.searchsorted(keys, probes, side=side)
        np.testing.assert_array_equal(
            column.bound_positions(probes, side=side), expected
        )
    lower = np.searchsorted(keys, probes, side="left")
    member = np.searchsorted(keys, probes, side="right") > lower
    np.testing.assert_array_equal(
        column.rank_of(probes), np.where(member, lower, -1)
    )


@settings(max_examples=60, deadline=None)
@given(
    num_keys=st.integers(min_value=1, max_value=3000),
    stride=st.integers(min_value=1, max_value=7),
    offset=st.sampled_from([0, 3, 2**40]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_virtual_comparands_preserve_every_comparison(
    num_keys, stride, offset, seed
):
    """For every position and probe, comparing comparands gives the truth
    value comparing keys gives -- past-the-data slots included, which
    compare like the MAX key."""
    column = VirtualSortedColumn(
        num_keys, stride=stride, offset=offset, seed=seed
    )
    positions = np.arange(num_keys, dtype=np.int64)
    keys = column.key_at(positions)
    probes = edge_probes(column, np.random.default_rng(seed), count=40)
    key_at, below, at_or_below, past = column.comparands(probes)
    slots = key_at(positions)
    np.testing.assert_array_equal(
        slots[:, None] < below[None, :], keys[:, None] < probes[None, :]
    )
    np.testing.assert_array_equal(
        slots[:, None] <= at_or_below[None, :],
        keys[:, None] <= probes[None, :],
    )
    max_key = np.uint64(2**64 - 1)
    np.testing.assert_array_equal(past < below, max_key < probes)
    np.testing.assert_array_equal(past <= at_or_below, max_key <= probes)


def test_materialized_comparands_are_keys():
    column = MaterializedColumn(np.array([1, 5, 9], dtype=np.uint64))
    probes = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
    key_at, below, at_or_below, past = column.comparands(probes)
    assert key_at(np.array([2])).tolist() == [9]
    assert below is at_or_below
    np.testing.assert_array_equal(below, probes)
    assert past == np.uint64(2**64 - 1)


@pytest.mark.parametrize("stride", [1, 2, 3, 4, 7, 64])
@pytest.mark.parametrize("side", ["left", "right"])
def test_virtual_bounds_match_masked_bisection(stride, side, rng):
    """The O(1) bounds answer what the masked bisection they replace
    answered, at a size where a copy would be large."""
    column = VirtualSortedColumn(2**30, stride=stride, offset=77, seed=9)
    probes = edge_probes(column, rng, count=2000)
    np.testing.assert_array_equal(
        column.bound_positions(probes, side=side),
        masked_bound_positions(column, probes, side),
    )


def test_bound_positions_rejects_bad_side():
    column = VirtualSortedColumn(100, stride=4)
    with pytest.raises(ConfigurationError):
        column.bound_positions(np.array([5], dtype=np.uint64), side="up")
