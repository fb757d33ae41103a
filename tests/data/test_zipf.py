"""Bounded Zipf sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.zipf import (
    scatter_ranks,
    zipf_cdf,
    zipf_sample,
    zipf_sum_p2,
    zipf_top_mass,
)
from repro.errors import WorkloadError


class TestCdf:
    def test_monotone(self):
        ranks = np.arange(1000)
        cdf = zipf_cdf(ranks, n=1000, theta=1.0)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_bounded(self):
        cdf = zipf_cdf(np.arange(100), n=100, theta=1.5)
        assert cdf.min() >= 0.0 and cdf.max() <= 1.0

    def test_uniform_case(self):
        cdf = zipf_cdf(np.array([49]), n=100, theta=0.0)
        assert cdf[0] == pytest.approx(0.5)

    def test_skew_concentrates_mass(self):
        light = zipf_cdf(np.array([9]), n=10_000, theta=0.5)[0]
        heavy = zipf_cdf(np.array([9]), n=10_000, theta=1.5)[0]
        assert heavy > light

    def test_rejects_bad_inputs(self):
        with pytest.raises(WorkloadError):
            zipf_cdf(np.array([0]), n=0, theta=1.0)
        with pytest.raises(WorkloadError):
            zipf_cdf(np.array([0]), n=10, theta=-1.0)


class TestSample:
    def test_bounds(self, rng):
        ranks = zipf_sample(rng, n=1000, theta=1.2, size=10_000)
        assert ranks.min() >= 0 and ranks.max() < 1000

    def test_theta_zero_is_uniform(self, rng):
        ranks = zipf_sample(rng, n=100, theta=0.0, size=100_000)
        counts = np.bincount(ranks, minlength=100)
        assert counts.std() / counts.mean() < 0.1

    def test_hot_rank_dominates_at_high_theta(self, rng):
        ranks = zipf_sample(rng, n=2**20, theta=1.75, size=50_000)
        hottest_share = np.mean(ranks == 0)
        # Bounded Zipf(1.75) gives rank 0 roughly 40% of the mass.
        assert hottest_share > 0.25

    def test_matches_cdf(self, rng):
        n, theta = 10_000, 1.0
        ranks = zipf_sample(rng, n=n, theta=theta, size=200_000)
        for quantile_rank in (10, 100, 1000):
            empirical = np.mean(ranks <= quantile_rank)
            analytic = zipf_cdf(np.array([quantile_rank]), n, theta)[0]
            assert empirical == pytest.approx(analytic, abs=0.05)

    def test_empty(self, rng):
        assert len(zipf_sample(rng, n=10, theta=1.0, size=0)) == 0

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(WorkloadError):
            zipf_sample(rng, n=0, theta=1.0, size=1)
        with pytest.raises(WorkloadError):
            zipf_sample(rng, n=10, theta=-0.1, size=1)
        with pytest.raises(WorkloadError):
            zipf_sample(rng, n=10, theta=1.0, size=-1)


class TestScatterRanks:
    def test_permutes_small_domains(self):
        # Below the int64 wrap and coprime to the multiplier: one-to-one.
        positions = scatter_ranks(np.arange(4097, dtype=np.int64), 4097, 5)
        assert np.array_equal(np.sort(positions), np.arange(4097))


class TestCollisionMass:
    def test_uniform(self):
        assert zipf_sum_p2(100, 0.0) == pytest.approx(0.01)

    def test_increases_with_skew(self):
        masses = [zipf_sum_p2(2**26, theta) for theta in (0.0, 0.5, 1.0, 1.75)]
        assert masses == sorted(masses)

    def test_heavy_skew_order_of_magnitude(self):
        # At theta=1.75, the hottest key alone carries ~0.39 of the mass,
        # so sum p^2 must be at least ~0.15.
        assert zipf_sum_p2(2**26, 1.75) > 0.1

    def test_rejects_bad_inputs(self):
        with pytest.raises(WorkloadError):
            zipf_sum_p2(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_sum_p2(10, -1.0)


class TestTopMass:
    def test_zero_top(self):
        assert zipf_top_mass(100, 1.0, 0) == 0.0

    def test_full_top(self):
        assert zipf_top_mass(100, 1.0, 100) == pytest.approx(1.0, abs=0.01)

    def test_paper_l1_hot_set(self):
        # The paper computes a 69% L1 hit chance at exponent 1.0
        # (Section 5.2.2); an L1-sized hot set over R's domain should
        # carry a comparable mass.
        l1_keys = 128 * 1024 // 8
        mass = zipf_top_mass(int(100 * 2**30 / 8), 1.0, l1_keys)
        assert 0.3 < mass < 0.9


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10**6),
    theta=st.floats(min_value=0.0, max_value=2.0),
)
def test_cdf_endpoints(n, theta):
    cdf = zipf_cdf(np.array([0, n - 1]), n=n, theta=theta)
    assert 0.0 < cdf[0] <= 1.0
    assert cdf[1] == pytest.approx(1.0, abs=0.02)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=2**40),
    theta=st.sampled_from([0.5, 1.0, 1.5]),
    size=st.integers(min_value=1, max_value=5000),
    data=st.data(),
)
def test_sample_is_chunk_invariant(seed, n, theta, size, data):
    """Two draws split anywhere equal one unsplit draw (streaming relies on it).

    theta == 1 takes the exp/log inversion, the others the power one.
    """
    split = data.draw(st.integers(min_value=0, max_value=size), label="split")
    whole = zipf_sample(np.random.default_rng(seed), n, theta, size)
    rng = np.random.default_rng(seed)
    head = zipf_sample(rng, n, theta, split)
    tail = zipf_sample(rng, n, theta, size - split)
    np.testing.assert_array_equal(np.concatenate([head, tail]), whole)
