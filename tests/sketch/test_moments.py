"""Tests for repro.sketch.moments."""

import random
import statistics

import pytest

from repro.errors import SketchError
from repro.sketch import RunningMoments


class TestRunningMoments:
    def test_rejects_non_numeric(self):
        with pytest.raises(SketchError):
            RunningMoments().add("x")
        with pytest.raises(SketchError):
            RunningMoments().add(False)

    def test_matches_statistics_module(self):
        rng = random.Random(11)
        values = [rng.gauss(5.0, 2.0) for _ in range(1000)]
        m = RunningMoments()
        m.add_all(values)
        assert m.mean == pytest.approx(statistics.mean(values))
        assert m.variance == pytest.approx(statistics.variance(values))
        assert m.stddev == pytest.approx(statistics.stdev(values))
        assert m.min_value == min(values)
        assert m.max_value == max(values)

    def test_total(self):
        m = RunningMoments()
        m.add_all([1.0, 2.0, 3.0])
        assert m.total == pytest.approx(6.0)

    def test_variance_below_two_is_none(self):
        m = RunningMoments()
        assert m.variance is None
        m.add(1.0)
        assert m.variance is None
        assert m.stddev is None

    def test_merge_equals_single_pass(self):
        rng = random.Random(12)
        values = [rng.random() * 100 for _ in range(2000)]
        full = RunningMoments()
        full.add_all(values)
        a, b = RunningMoments(), RunningMoments()
        a.add_all(values[:700])
        b.add_all(values[700:])
        merged = a.merge(b)
        assert merged.count == full.count
        assert merged.mean == pytest.approx(full.mean)
        assert merged.variance == pytest.approx(full.variance)
        assert merged.min_value == full.min_value
        assert merged.max_value == full.max_value

    def test_merge_with_empty(self):
        a = RunningMoments()
        a.add_all([1.0, 2.0])
        merged = a.merge(RunningMoments())
        assert merged.count == 2
        assert merged.mean == pytest.approx(1.5)

    def test_merge_two_empties(self):
        merged = RunningMoments().merge(RunningMoments())
        assert merged.count == 0
        assert merged.min_value is None
