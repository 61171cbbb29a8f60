"""Tests for repro.sketch.reservoir."""

import pytest

from repro.errors import SketchError
from repro.sketch import ReservoirSample


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SketchError):
            ReservoirSample(0)

    def test_fills_up_to_capacity(self):
        rs = ReservoirSample(5, seed=1)
        rs.add_all(range(3))
        assert sorted(rs.values()) == [0, 1, 2]

    def test_never_exceeds_capacity(self):
        rs = ReservoirSample(10, seed=1)
        rs.add_all(range(1000))
        assert len(rs) == 10
        assert rs.seen == 1000

    def test_sample_members_come_from_stream(self):
        rs = ReservoirSample(10, seed=2)
        rs.add_all(range(500))
        assert all(0 <= v < 500 for v in rs)

    def test_deterministic_under_seed(self):
        a, b = ReservoirSample(10, seed=7), ReservoirSample(10, seed=7)
        a.add_all(range(200))
        b.add_all(range(200))
        assert a.values() == b.values()

    def test_approximately_uniform(self):
        # each of 100 items should land in a size-10 sample ~10% of runs
        hits = [0] * 100
        for seed in range(300):
            rs = ReservoirSample(10, seed=seed)
            rs.add_all(range(100))
            for v in rs:
                hits[v] += 1
        expected = 300 * 10 / 100
        assert all(expected * 0.4 <= h <= expected * 1.9 for h in hits)

    def test_estimate_mean(self):
        rs = ReservoirSample(1000, seed=1)
        rs.add_all(range(100))  # under capacity: exact
        assert rs.estimate_mean() == pytest.approx(49.5)

    def test_estimate_mean_non_numeric(self):
        rs = ReservoirSample(10, seed=1)
        rs.add("x")
        assert rs.estimate_mean() is None


class TestMerge:
    def test_merge_sizes(self):
        a, b = ReservoirSample(10, seed=1), ReservoirSample(10, seed=2)
        a.add_all(range(100))
        b.add_all(range(100, 200))
        merged = a.merge(b)
        assert merged.seen == 200
        assert len(merged) <= 10
        assert all(0 <= v < 200 for v in merged)

    def test_merge_with_empty(self):
        a, b = ReservoirSample(5, seed=1), ReservoirSample(5, seed=2)
        a.add_all(range(50))
        merged = a.merge(b)
        assert merged.seen == 50
        assert len(merged) >= 1

    def test_merge_two_empties(self):
        merged = ReservoirSample(5, seed=1).merge(ReservoirSample(5, seed=2))
        assert merged.seen == 0
        assert len(merged) == 0

    def test_merge_is_deterministic_and_leaves_parents_alone(self):
        a, b = ReservoirSample(10, seed=1), ReservoirSample(10, seed=2)
        a.add_all(range(100))
        b.add_all(range(100, 250))
        states = a._rng.getstate(), b._rng.getstate()
        first, second = a.merge(b), a.merge(b)
        assert first.values() == second.values()
        assert (a._rng.getstate(), b._rng.getstate()) == states
        # the seed comes from the parents' counts, not from their RNGs
        a._rng.random()
        assert a.merge(b).values() == first.values()
