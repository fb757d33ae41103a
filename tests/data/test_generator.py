"""Workload generators."""

import numpy as np
import pytest

from repro.data import generator
from repro.data.column import KEY_DTYPE, MaterializedColumn, VirtualSortedColumn
from repro.data.generator import (
    ProbeSet,
    WorkloadConfig,
    make_build_relation,
    make_ordered_probe_sample,
    make_probe_keys,
    make_workload,
)
from repro.data.zipf import zipf_sample
from repro.errors import WorkloadError


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        config = WorkloadConfig(r_tuples=2**30)
        assert config.s_tuples == 2**26
        assert config.match_rate == 1.0
        assert config.zipf_theta == 0.0

    def test_selectivity(self):
        config = WorkloadConfig(r_tuples=2**28, s_tuples=2**26)
        assert config.join_selectivity == pytest.approx(0.25)

    def test_selectivity_capped(self):
        config = WorkloadConfig(r_tuples=2**10, s_tuples=2**26)
        assert config.join_selectivity == 1.0

    def test_paper_crossover_selectivities(self):
        # 8.0% at 6.2 GiB and 3.6% at 13.9 GiB (Section 5.2.3).
        gib = 2**30
        at_6_2 = WorkloadConfig(r_tuples=int(6.2 * gib / 8))
        at_13_9 = WorkloadConfig(r_tuples=int(13.9 * gib / 8))
        assert at_6_2.join_selectivity == pytest.approx(0.080, abs=0.002)
        assert at_13_9.join_selectivity == pytest.approx(0.036, abs=0.002)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r_tuples=0),
            dict(r_tuples=10, s_tuples=0),
            dict(r_tuples=10, match_rate=1.5),
            dict(r_tuples=10, match_rate=-0.1),
            dict(r_tuples=10, zipf_theta=-1),
            dict(r_tuples=10, match_rate=0.5, stride=2),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadConfig(**kwargs)


class TestBuildRelation:
    def test_unique_sorted_keys(self):
        config = WorkloadConfig(r_tuples=2**12, seed=1)
        relation = make_build_relation(config)
        keys = relation.column.key_at(np.arange(2**12))
        assert np.all(keys[:-1] < keys[1:])

    def test_named_r(self):
        relation = make_build_relation(WorkloadConfig(r_tuples=16))
        assert relation.name == "R"


class TestProbeKeys:
    def test_all_match_at_rate_one(self):
        config = WorkloadConfig(r_tuples=2**12, seed=2)
        relation, probes = make_workload(config, probe_count=512)
        assert probes.num_matches == 512
        looked_up = relation.column.rank_of(probes.keys)
        assert np.array_equal(looked_up, probes.expected_positions)

    def test_match_rate_honored(self):
        config = WorkloadConfig(r_tuples=2**14, match_rate=0.5, seed=3)
        relation, probes = make_workload(config, probe_count=4096)
        fraction = probes.num_matches / len(probes)
        assert fraction == pytest.approx(0.5, abs=0.05)

    def test_non_matching_keys_absent_from_r(self):
        config = WorkloadConfig(r_tuples=2**14, match_rate=0.5, seed=3)
        relation, probes = make_workload(config, probe_count=4096)
        misses = probes.expected_positions < 0
        assert np.all(relation.column.rank_of(probes.keys[misses]) == -1)

    def test_reproducible(self):
        config = WorkloadConfig(r_tuples=2**12, seed=9)
        relation = make_build_relation(config)
        a = make_probe_keys(relation.column, config, count=256)
        b = make_probe_keys(relation.column, config, count=256)
        assert np.array_equal(a.keys, b.keys)

    def test_zipf_probes_repeat_hot_keys(self):
        config = WorkloadConfig(r_tuples=2**16, zipf_theta=1.5, seed=4)
        relation = make_build_relation(config)
        probes = make_probe_keys(relation.column, config, count=4096)
        __, counts = np.unique(probes.keys, return_counts=True)
        assert counts.max() > 50  # a hot key dominates

    def test_uniform_probes_rarely_repeat(self):
        config = WorkloadConfig(r_tuples=2**20, seed=4)
        relation = make_build_relation(config)
        probes = make_probe_keys(relation.column, config, count=4096)
        __, counts = np.unique(probes.keys, return_counts=True)
        assert counts.max() <= 3

    def test_rejects_zero_count(self):
        config = WorkloadConfig(r_tuples=2**12)
        relation = make_build_relation(config)
        with pytest.raises(WorkloadError):
            make_probe_keys(relation.column, config, count=0)


class TestProbeSet:
    def test_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError):
            ProbeSet(
                keys=np.zeros(3, dtype=np.uint64),
                expected_positions=np.zeros(2, dtype=np.int64),
            )


class TestOrderedSample:
    def test_sorted_by_key(self):
        config = WorkloadConfig(r_tuples=2**20, seed=5)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=2**16, count=2**10
        )
        assert np.all(sample.keys[:-1] <= sample.keys[1:])

    def test_density_preserved(self):
        """Sample spacing must match |R| / W, not |R| / count."""
        config = WorkloadConfig(r_tuples=2**20, seed=5)
        relation = make_build_relation(config)
        window = 2**16
        count = 2**10
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=window, count=count
        )
        covered = int(sample.expected_positions.max())
        expected_segment = config.r_tuples * count / window
        assert covered == pytest.approx(expected_segment, rel=0.2)

    def test_zipf_sample_repeats_like_a_real_window(self):
        config = WorkloadConfig(r_tuples=2**20, zipf_theta=1.25, seed=5)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=2**18, count=2**10
        )
        __, counts = np.unique(sample.keys, return_counts=True)
        assert counts.max() > 5  # hot keys duplicated within the window

    def test_count_clamped_to_window(self):
        config = WorkloadConfig(r_tuples=2**16, seed=5)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=64, count=2**12
        )
        assert len(sample) <= 4 * 64

    def test_expected_positions_correct(self):
        config = WorkloadConfig(r_tuples=2**16, seed=6)
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=2**12, count=2**8
        )
        assert np.array_equal(
            relation.column.rank_of(sample.keys), sample.expected_positions
        )

    @pytest.mark.parametrize(
        "theta, window, count",
        [(1.25, 2**16, 2**8), (0.25, 3 * 2**16 + 17, 2**12)],
        ids=["more-than-count", "fewer-than-count"],
    )
    def test_regression_skewed_sample_with_match_rate_below_one(
        self, theta, window, count
    ):
        """A skewed sample with match_rate < 1 raised IndexError.

        The miss mask had ``count`` entries while a skewed sample holds
        between 1 and ``4 * count`` positions.
        """
        config = WorkloadConfig(
            r_tuples=2**16, zipf_theta=theta, match_rate=0.5, seed=11
        )
        relation = make_build_relation(config)
        sample = make_ordered_probe_sample(
            relation.column, config, window_tuples=window, count=count
        )
        assert len(sample) != count
        misses = sample.expected_positions < 0
        assert np.mean(misses) == pytest.approx(0.5, abs=0.05)
        assert np.all(relation.column.rank_of(sample.keys[misses]) == -1)
        assert np.array_equal(
            relation.column.rank_of(sample.keys[~misses]),
            sample.expected_positions[~misses],
        )

    def test_rejects_bad_inputs(self):
        config = WorkloadConfig(r_tuples=2**12)
        relation = make_build_relation(config)
        with pytest.raises(WorkloadError):
            make_ordered_probe_sample(
                relation.column, config, window_tuples=0, count=10
            )
        with pytest.raises(WorkloadError):
            make_ordered_probe_sample(
                relation.column, config, window_tuples=10, count=0
            )


def _one_shot_sample(build_column, config, window_tuples, count):
    """The skewed sampler as one full draw, frozen as the reference.

    Returns the sample's keys and positions and the generator after them.
    """
    count = min(count, window_tuples)
    rng = np.random.default_rng(config.seed + 0x0D0E)
    n = len(build_column)
    draw = min(window_tuples, 2**24)
    effective_segment = max(1, min(n, round(n * count / draw)))
    ranks = zipf_sample(rng, n, config.zipf_theta, draw)
    all_positions = (ranks * np.int64(2654435761) + np.int64(config.seed)) % n
    positions = all_positions[all_positions < effective_segment]
    if len(positions) == 0:
        positions = all_positions[:count]
    elif len(positions) > 4 * count:
        positions = positions[: 4 * count]
    positions.sort()
    keys = build_column.key_at(positions).astype(KEY_DTYPE)
    return keys, positions.copy(), rng


CHUNK = generator._SAMPLE_CHUNK


@pytest.fixture(scope="module", params=["materialized", "virtual"])
def skew_relation(request):
    r_tuples = 2**16 if request.param == "materialized" else 2**30
    relation = make_build_relation(WorkloadConfig(r_tuples=r_tuples, seed=11))
    kind = (
        MaterializedColumn if request.param == "materialized"
        else VirtualSortedColumn
    )
    assert isinstance(relation.column, kind)
    return relation


class TestOrderedSampleStreaming:
    """The chunked, early-exit sampler against one full draw."""

    @staticmethod
    def assert_matches_one_shot(column, config, window, count):
        keys, positions, reference_rng = _one_shot_sample(
            column, config, window, count
        )
        sample = make_ordered_probe_sample(column, config, window, count)
        np.testing.assert_array_equal(sample.keys, keys)
        np.testing.assert_array_equal(sample.expected_positions, positions)
        rng = np.random.default_rng(config.seed + 0x0D0E)
        generator._skewed_window_positions(
            rng,
            len(column),
            config,
            min(window, generator._WINDOW_DRAW_CAP),
            min(count, window),
        )
        np.testing.assert_array_equal(rng.random(8), reference_rng.random(8))
        return sample

    @pytest.mark.parametrize("theta", [0.25, 0.5, 1.0, 1.25, 1.75, 3.0])
    @pytest.mark.parametrize(
        "window, count",
        [(1000, 64), (CHUNK, 256), (3 * CHUNK + 17, 4096)],
        ids=["below-chunk", "one-chunk", "non-multiple"],
    )
    def test_matches_one_shot(self, skew_relation, theta, window, count):
        config = WorkloadConfig(
            r_tuples=len(skew_relation.column), zipf_theta=theta, seed=11
        )
        sample = self.assert_matches_one_shot(
            skew_relation.column, config, window, count
        )
        assert 1 <= len(sample) <= 4 * count

    @pytest.mark.parametrize(
        "theta, capped", [(0.5, False), (1.75, True)], ids=["open", "capped"]
    )
    def test_matches_one_shot_above_draw_cap(self, theta, capped):
        config = WorkloadConfig(r_tuples=2**30, zipf_theta=theta, seed=11)
        column = make_build_relation(config).column
        window = generator._WINDOW_DRAW_CAP + CHUNK // 2 + 3
        sample = self.assert_matches_one_shot(column, config, window, 2**12)
        assert (len(sample) == 4 * 2**12) == capped

    def test_empty_segment_fallback(self):
        # Zipf(3) puts nearly every draw on a few hot ranks, none of which
        # scatters into this small segment: the sample is the first
        # ``count`` draws.
        config = WorkloadConfig(r_tuples=2**16, zipf_theta=3.0, seed=3)
        column = make_build_relation(config).column
        window, count = 3 * CHUNK + 17, 8
        sample = self.assert_matches_one_shot(column, config, window, count)
        segment = round(len(column) * count / window)
        assert len(sample) == count
        assert np.all(sample.expected_positions >= segment)

    def test_capped_sample_stops_drawing(self, monkeypatch):
        drawn = []

        def counting_sample(rng, n, theta, size):
            drawn.append(size)
            return zipf_sample(rng, n, theta, size)

        monkeypatch.setattr(generator, "zipf_sample", counting_sample)
        config = WorkloadConfig(r_tuples=2**30, zipf_theta=1.75, seed=11)
        column = make_build_relation(config).column
        sample = make_ordered_probe_sample(
            column, config, window_tuples=2**22, count=2**12
        )
        assert len(sample) == 4 * 2**12
        assert max(drawn) <= CHUNK
        assert sum(drawn) < 2**22 // 8
