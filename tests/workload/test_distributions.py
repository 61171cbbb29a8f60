"""Tests for repro.workload.distributions."""

import pytest

from repro.errors import WorkloadError
from repro.workload import Categorical, GaussianFloats, ZipfInts


class TestZipfInts:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfInts(0)
        with pytest.raises(WorkloadError):
            ZipfInts(10, s=0)

    def test_range(self):
        dist = ZipfInts(50, s=1.2, seed=1)
        assert all(1 <= dist.sample() <= 50 for _ in range(1000))

    def test_rank_one_most_popular(self):
        dist = ZipfInts(100, s=1.2, seed=2)
        counts = {}
        for _ in range(10_000):
            k = dist.sample()
            counts[k] = counts.get(k, 0) + 1
        assert counts[1] == max(counts.values())
        assert counts[1] > counts.get(10, 0)
        assert counts.get(10, 0) > counts.get(100, 0)

    def test_skew_increases_with_s(self):
        flat = ZipfInts(100, s=0.5, seed=3)
        steep = ZipfInts(100, s=2.0, seed=3)
        flat_top = sum(1 for _ in range(5000) if flat.sample() == 1)
        steep_top = sum(1 for _ in range(5000) if steep.sample() == 1)
        assert steep_top > flat_top


class TestGaussianFloats:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            GaussianFloats(stddev=0)
        with pytest.raises(WorkloadError):
            GaussianFloats(low=5, high=1)

    def test_clamping(self):
        dist = GaussianFloats(mean=0, stddev=10, low=-1, high=1, seed=1)
        assert all(-1 <= dist.sample() <= 1 for _ in range(500))

    def test_mean_roughly_respected(self):
        dist = GaussianFloats(mean=50, stddev=5, seed=2)
        samples = [dist.sample() for _ in range(2000)]
        assert sum(samples) / len(samples) == pytest.approx(50, abs=1)


class TestCategorical:
    def test_needs_items(self):
        with pytest.raises(WorkloadError):
            Categorical([])

    def test_weight_arity(self):
        with pytest.raises(WorkloadError):
            Categorical(["a", "b"], weights=[1.0])

    def test_bad_weights(self):
        with pytest.raises(WorkloadError):
            Categorical(["a"], weights=[-1.0])
        with pytest.raises(WorkloadError):
            Categorical(["a"], weights=[0.0])

    def test_unweighted_uniform(self):
        dist = Categorical(["a", "b"], seed=1)
        samples = [dist.sample() for _ in range(1000)]
        assert 350 < samples.count("a") < 650

    def test_weighted_skew(self):
        dist = Categorical(["a", "b"], weights=[9, 1], seed=2)
        samples = [dist.sample() for _ in range(1000)]
        assert samples.count("a") > 800
