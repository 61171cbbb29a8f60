"""Tests for repro.sketch.moments."""

import random
import statistics

import pytest

from repro.errors import SketchError
from repro.sketch import RunningMoments, serde


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


class _Float(float):
    """A float subclass: still a number."""


@pytest.mark.parametrize("bad", ["x", True, None])
@pytest.mark.parametrize("where", [0, 40, 80], ids=["first", "middle", "last"])
def test_bad_batch_changes_nothing(bad, where):
    """A batch holding a non-number raises before any value is folded in."""
    sketch = RunningMoments()
    sketch.add_all([float(v) for v in range(70)])
    before = serde.moments_to_dict(sketch)
    values = [_Float(v) / 3 for v in range(80)]
    values.insert(where, bad)
    with pytest.raises(SketchError):
        sketch.add_all(values)
    assert serde.moments_to_dict(sketch) == before
    sketch.add_all([_Float(0.5), 7])
    assert sketch.count == 72
