"""RadixSpline specifics, including the GreedySplineCorridor builder."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.column import MaterializedColumn, VirtualSortedColumn
from repro.errors import ConfigurationError
from repro.indexes import radix_spline
from repro.indexes.radix_spline import (
    RadixSplineIndex,
    greedy_spline_corridor,
    uniform_spline,
)

from .test_differential import relation_keys


def interpolation_error(keys, point_keys, point_positions):
    """Max |predicted - true| of linear interpolation between points."""
    positions = np.arange(len(keys), dtype=np.float64)
    segment = np.clip(
        np.searchsorted(point_keys, keys, side="right") - 1,
        0,
        len(point_keys) - 2,
    )
    key_low = point_keys[segment].astype(np.float64)
    key_high = point_keys[segment + 1].astype(np.float64)
    pos_low = point_positions[segment].astype(np.float64)
    pos_high = point_positions[segment + 1].astype(np.float64)
    span = np.maximum(key_high - key_low, 1.0)
    predicted = pos_low + (keys.astype(np.float64) - key_low) / span * (
        pos_high - pos_low
    )
    return float(np.abs(predicted - positions).max())


def scalar_spline_corridor(keys, max_error):
    """Reference: the corridor walked one key at a time, as published."""
    n = len(keys)
    if n <= 2:
        return keys.copy(), np.arange(n, dtype=np.int64)
    point_positions = [0]
    anchor_key = int(keys[0])
    anchor_pos = 0.0
    slope_low = -math.inf
    slope_high = math.inf
    for position in range(1, n):
        key = int(keys[position])
        dx = float(key - anchor_key)
        candidate_low = (position - max_error - anchor_pos) / dx
        candidate_high = (position + max_error - anchor_pos) / dx
        if candidate_low > slope_high or candidate_high < slope_low:
            previous = position - 1
            point_positions.append(previous)
            anchor_key = int(keys[previous])
            anchor_pos = float(previous)
            dx = float(key - anchor_key)
            slope_low = (position - max_error - anchor_pos) / dx
            slope_high = (position + max_error - anchor_pos) / dx
        else:
            slope_low = max(slope_low, candidate_low)
            slope_high = min(slope_high, candidate_high)
    if point_positions[-1] != n - 1:
        point_positions.append(n - 1)
    positions = np.asarray(point_positions, dtype=np.int64)
    return keys[positions], positions


class TestGreedySplineCorridor:
    def test_linear_data_needs_two_points(self):
        keys = np.arange(0, 8000, 8, dtype=np.uint64)
        point_keys, point_positions = greedy_spline_corridor(keys, max_error=4)
        assert len(point_keys) == 2
        assert point_positions[0] == 0
        assert point_positions[-1] == len(keys) - 1

    def test_error_stays_near_bound(self, rng):
        """The greedy chord can exceed the corridor at interior points
        (see measure_spline_error), but only by a small constant factor."""
        gaps = rng.integers(1, 100, size=5000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        for max_error in (2, 8, 32):
            point_keys, point_positions = greedy_spline_corridor(
                keys, max_error=max_error
            )
            assert interpolation_error(
                keys, point_keys, point_positions
            ) <= 3 * max_error + 1

    def test_larger_error_fewer_points(self, rng):
        gaps = rng.integers(1, 100, size=5000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        tight = greedy_spline_corridor(keys, max_error=2)[0]
        loose = greedy_spline_corridor(keys, max_error=64)[0]
        assert len(loose) <= len(tight)

    def test_endpoints_included(self, rng):
        gaps = rng.integers(1, 50, size=1000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        point_keys, point_positions = greedy_spline_corridor(keys, max_error=8)
        assert point_keys[0] == keys[0] and point_keys[-1] == keys[-1]
        assert point_positions[0] == 0 and point_positions[-1] == len(keys) - 1

    def test_tiny_inputs(self):
        for n in (1, 2):
            keys = np.arange(n, dtype=np.uint64) * 10
            point_keys, point_positions = greedy_spline_corridor(keys, 4)
            assert len(point_keys) == n

    def test_rejects_bad_error(self):
        with pytest.raises(ConfigurationError):
            greedy_spline_corridor(np.array([1, 2], dtype=np.uint64), 0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            greedy_spline_corridor(np.array([], dtype=np.uint64), 4)

    @pytest.mark.parametrize(
        "keys", [[1, 2, 2, 5], [3, 9, 7, 12], [10, 4, 20]]
    )
    def test_rejects_unsorted(self, keys):
        """Any non-increasing neighbour pair is rejected, also one the
        corridor's anchor-relative deltas would not see (9 > 7 > 3)."""
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            greedy_spline_corridor(np.asarray(keys, dtype=np.uint64), 4)

    @settings(max_examples=40, deadline=None)
    @given(
        keys=relation_keys(),
        max_error=st.integers(min_value=1, max_value=64),
        chunk=st.integers(min_value=1, max_value=50),
    )
    def test_matches_scalar_corridor(self, keys, max_error, chunk):
        """Chunked scan == one-key-at-a-time loop, bit for bit; tiny
        chunks carry the corridor across many chunk boundaries."""
        want_keys, want_positions = scalar_spline_corridor(keys, max_error)
        with mock.patch.object(radix_spline, "_CORRIDOR_CHUNK", chunk):
            got_keys, got_positions = greedy_spline_corridor(keys, max_error)
        np.testing.assert_array_equal(got_positions, want_positions)
        np.testing.assert_array_equal(got_keys, want_keys)
        assert got_keys.dtype == np.uint64

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 256])
    def test_random_walk_matches_scalar_corridor(self, rng, chunk):
        """A random-walk CDF collapses the corridor every ~max_error**2
        keys, so segments straddle chunk boundaries at every size."""
        gaps = rng.integers(1, 100, size=6000).astype(np.uint64)
        keys = np.cumsum(gaps).astype(np.uint64)
        for max_error in (1, 4, 16):
            want_keys, want_positions = scalar_spline_corridor(keys, max_error)
            with mock.patch.object(radix_spline, "_CORRIDOR_CHUNK", chunk):
                got_keys, got_positions = greedy_spline_corridor(
                    keys, max_error
                )
            assert len(want_positions) > 2
            np.testing.assert_array_equal(got_positions, want_positions)
            np.testing.assert_array_equal(got_keys, want_keys)


class TestUniformSpline:
    def test_virtual_column_error_is_one(self):
        column = VirtualSortedColumn(2**16, stride=4)
        __, __, error = uniform_spline(column, interval=1024)
        assert error == 1

    def test_materialized_error_measured(self, rng):
        gaps = rng.integers(1, 100, size=4096).astype(np.uint64)
        column = MaterializedColumn(np.cumsum(gaps).astype(np.uint64))
        keys, positions, error = uniform_spline(column, interval=256)
        assert interpolation_error(column.keys, keys, positions) <= error

    def test_last_position_included(self):
        column = VirtualSortedColumn(1000, stride=4)
        __, positions, __ = uniform_spline(column, interval=300)
        assert positions[-1] == 999

    def test_rejects_tiny_interval(self):
        column = VirtualSortedColumn(100)
        with pytest.raises(ConfigurationError):
            uniform_spline(column, interval=1)


class TestRadixSplineIndex:
    def test_auto_fit_greedy_for_materialized(self, small_relation):
        index = RadixSplineIndex(small_relation)
        assert index.fit == "greedy"

    def test_auto_fit_uniform_for_virtual(self, virtual_relation):
        index = RadixSplineIndex(virtual_relation)
        assert index.fit == "uniform"

    def test_greedy_rejected_on_virtual(self, virtual_relation):
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(virtual_relation, fit="greedy")

    def test_spline_density_is_realistic(self, virtual_relation):
        """Virtual columns must not get an unrealistically sparse spline
        (DESIGN.md: interval defaults to max_error**2)."""
        index = RadixSplineIndex(virtual_relation, max_error=32)
        expected_points = len(virtual_relation.column) / 32**2
        assert index.num_spline_points == pytest.approx(expected_points, rel=0.01)

    def test_footprint_includes_table_and_points(self, small_relation):
        index = RadixSplineIndex(small_relation)
        assert index.footprint_bytes >= len(index.radix_table) * 8

    def test_radix_table_bounded(self, virtual_relation):
        index = RadixSplineIndex(virtual_relation, radix_bits=18)
        assert len(index.radix_table) <= 2**18 + 2

    def test_radix_table_monotone(self, small_relation):
        index = RadixSplineIndex(small_relation)
        table = index.radix_table
        assert np.all(np.diff(table) >= 0)

    def test_max_error_controls_search_window(self, small_relation):
        tight = RadixSplineIndex(small_relation, max_error=2)
        loose = RadixSplineIndex(small_relation, max_error=64)
        assert tight.error_bound <= loose.error_bound

    def test_rejects_bad_radix_bits(self, small_relation):
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, radix_bits=0)
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, radix_bits=40)

    def test_rejects_bad_fit(self, small_relation):
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, fit="magic")

    def test_rejects_bad_max_error(self, small_relation):
        with pytest.raises(ConfigurationError):
            RadixSplineIndex(small_relation, max_error=0)

    def test_static_only(self):
        assert RadixSplineIndex.supports_updates is False


@settings(max_examples=20, deadline=None)
@given(
    size=st.integers(min_value=3, max_value=2000),
    max_error=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_greedy_corridor_property(size, max_error, seed):
    """Knots are a data subsequence and the index's measured bound is a
    true bound on the interpolation error, for arbitrary sorted data."""
    from repro.indexes.radix_spline import measure_spline_error

    rng = np.random.default_rng(seed)
    gaps = rng.integers(1, 1000, size=size).astype(np.uint64)
    keys = np.cumsum(gaps).astype(np.uint64)
    point_keys, point_positions = greedy_spline_corridor(keys, max_error)
    measured = measure_spline_error(keys, point_keys, point_positions)
    assert interpolation_error(keys, point_keys, point_positions) <= measured
    # Spline points are a subsequence of the data.
    assert np.all(np.isin(point_keys, keys))
    assert point_positions[0] == 0 and point_positions[-1] == size - 1


class TestLargeKeyRegressions:
    """Named regression tests for bugs surfaced by the differential
    suite (tests/indexes/test_differential.py)."""

    @staticmethod
    def _oracle(keys, probes):
        positions = np.searchsorted(keys, probes)
        clamped = np.minimum(positions, len(keys) - 1)
        hit = (positions < len(keys)) & (keys[clamped] == probes)
        return np.where(hit, positions, -1).astype(np.int64)

    def test_regression_adjacent_large_keys_build(self):
        """Keys near 2^62 with gap 3 used to abort the corridor builder.

        ``greedy_spline_corridor`` subtracted keys *after* converting to
        float64; at 2^62 the float64 ulp is 1024, so a gap of 3 rounded
        to dx = 0 and the builder raised "keys must be strictly
        increasing" on perfectly valid input.  Deltas are now formed on
        exact integers before the float division.
        """
        keys = (np.uint64(2**62) + np.arange(100, dtype=np.uint64) * 3).astype(
            np.uint64
        )
        point_keys, point_positions = greedy_spline_corridor(keys, max_error=4)
        assert point_positions[-1] == len(keys) - 1
        from repro.data.relation import Relation

        index = RadixSplineIndex(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        probes = np.concatenate([keys, keys + np.uint64(1)])
        np.testing.assert_array_equal(
            index.lookup(probes), self._oracle(keys, probes)
        )

    def test_regression_high_bit_keys_radix_table(self):
        """Keys at or above 2^63 used to wrap in the radix table.

        Prefix computation cast keys to int64 *before* subtracting the
        domain minimum; keys >= 2^63 became negative, producing garbage
        table slots.  Subtraction now happens in uint64.
        """
        rng = np.random.default_rng(13)
        keys = np.unique(
            (np.uint64(2**63 + 17) + rng.integers(0, 2**20, 500)).astype(
                np.uint64
            )
        )
        from repro.data.relation import Relation

        index = RadixSplineIndex(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        probes = np.concatenate(
            [keys[::3], keys[::5] + np.uint64(1), keys[:1] - np.uint64(1)]
        )
        np.testing.assert_array_equal(
            index.lookup(probes), self._oracle(keys, probes)
        )

    def test_regression_single_key_virtual_column(self):
        """A one-key implicit spline used to read spline point -1.

        With a single spline point the interpolation pair clamps to
        ``upper == 0``, and ``lower = upper - 1`` gathered the column at
        a negative position, which a virtual column rejects.  The lower
        point now clamps to 0 as well.
        """
        from repro.data.relation import Relation

        column = VirtualSortedColumn(num_keys=1, stride=1)
        index = RadixSplineIndex(Relation(name="R", column=column))
        probes = np.asarray([0, 1, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(index.lookup(probes), [0, -1, -1])

    def test_regression_out_of_domain_probe_overflow(self):
        """A probe far above the domain used to overflow the int cast.

        The interpolation estimate for an out-of-domain probe (e.g.
        2^64 - 1 against a small-key relation) exceeded the int64 range
        and the float->int cast raised "invalid value encountered in
        cast".  The estimate is now clamped in float space first; the
        probe is a clean miss, warning-free.
        """
        import warnings

        keys = np.arange(0, 4000, 4, dtype=np.uint64)
        from repro.data.relation import Relation

        index = RadixSplineIndex(
            Relation(name="R", column=MaterializedColumn(keys))
        )
        probes = np.asarray(
            [np.iinfo(np.uint64).max, 2**63, 3996, 3997], dtype=np.uint64
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = index.lookup(probes)
        np.testing.assert_array_equal(result, [-1, -1, 999, -1])


@settings(max_examples=40, deadline=None)
@given(
    num_keys=st.one_of(
        st.integers(min_value=1, max_value=300_000),
        # Last spline point a coarse (every 64th) sample, or one past it.
        st.sampled_from([64 * 4 + 1, 64 * 64 * 4 + 1, 64 * 64 * 4 + 2]),
    ),
    stride=st.integers(min_value=1, max_value=7),
    radix_bits=st.integers(min_value=1, max_value=18),
    max_error=st.sampled_from([1, 2, 32]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_implicit_radix_table_matches_searchsorted(
    num_keys, stride, radix_bits, max_error, seed
):
    """The implicit spline's radix table (coarse sample + unmasked
    bisection) equals a searchsorted over every spline point's prefix."""
    from repro.data.relation import Relation

    column = VirtualSortedColumn(num_keys, stride=stride, seed=seed)
    index = RadixSplineIndex(
        Relation(name="R", column=column),
        max_error=max_error,
        radix_bits=radix_bits,
    )
    points = np.arange(index.num_spline_points, dtype=np.int64)
    prefixes = (
        (index._spline_key_at(points) - np.uint64(index._min_key))
        >> np.uint64(index._shift)
    ).astype(np.int64)
    slots = np.arange(len(index.radix_table), dtype=np.int64)
    np.testing.assert_array_equal(
        index.radix_table, np.searchsorted(prefixes, slots, side="left")
    )
