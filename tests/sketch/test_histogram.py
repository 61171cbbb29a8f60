"""Tests for repro.sketch.histogram."""

import random
import statistics

import pytest

from repro.errors import SketchError
from repro.sketch import StreamingHistogram, serde


class TestBasics:
    def test_min_bins(self):
        with pytest.raises(SketchError):
            StreamingHistogram(1)

    def test_rejects_non_numeric(self):
        with pytest.raises(SketchError):
            StreamingHistogram().add("x")
        with pytest.raises(SketchError):
            StreamingHistogram().add(True)

    def test_bin_budget_respected(self):
        hist = StreamingHistogram(16)
        hist.add_all(random.Random(1).random() for _ in range(1000))
        assert len(hist) <= 16
        assert hist.total == 1000

    def test_duplicate_centroids_merge_counts(self):
        hist = StreamingHistogram(8)
        for _ in range(5):
            hist.add(3.0)
        assert hist.bins() == [(3.0, 5)]

    def test_min_max_tracked(self):
        hist = StreamingHistogram(8)
        hist.add_all([5.0, -2.0, 9.0])
        assert (hist.min_value, hist.max_value) == (-2.0, 9.0)

    def test_mean_exact_under_budget(self):
        hist = StreamingHistogram(64)
        hist.add_all(range(10))
        assert hist.mean() == pytest.approx(4.5)

    def test_mean_empty(self):
        assert StreamingHistogram().mean() is None


class TestQuantiles:
    def test_empty_raises(self):
        with pytest.raises(SketchError):
            StreamingHistogram().quantile(0.5)

    def test_out_of_range_raises(self):
        hist = StreamingHistogram()
        hist.add(1.0)
        with pytest.raises(SketchError):
            hist.quantile(1.5)

    def test_extremes(self):
        hist = StreamingHistogram(16)
        hist.add_all(range(100))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 99.0

    def test_median_of_gaussian(self):
        rng = random.Random(3)
        values = [rng.gauss(10.0, 2.0) for _ in range(5000)]
        hist = StreamingHistogram(64)
        hist.add_all(values)
        true_median = statistics.median(values)
        assert hist.quantile(0.5) == pytest.approx(true_median, abs=0.5)

    def test_p95_of_uniform(self):
        rng = random.Random(4)
        values = [rng.random() for _ in range(5000)]
        hist = StreamingHistogram(64)
        hist.add_all(values)
        assert hist.quantile(0.95) == pytest.approx(0.95, abs=0.05)


class TestMerge:
    def test_merge_totals(self):
        a, b = StreamingHistogram(32), StreamingHistogram(32)
        a.add_all(range(100))
        b.add_all(range(100, 200))
        merged = a.merge(b)
        assert merged.total == 200
        assert merged.min_value == 0.0
        assert merged.max_value == 199.0
        assert len(merged) <= 32

    def test_merge_with_empty(self):
        a = StreamingHistogram(8)
        a.add_all([1.0, 2.0])
        merged = a.merge(StreamingHistogram(8))
        assert merged.total == 2
        assert merged.quantile(1.0) == 2.0

    def test_merged_quantile_close_to_exact(self):
        rng = random.Random(5)
        values_a = [rng.gauss(0, 1) for _ in range(3000)]
        values_b = [rng.gauss(5, 1) for _ in range(3000)]
        a, b = StreamingHistogram(64), StreamingHistogram(64)
        a.add_all(values_a)
        b.add_all(values_b)
        merged = a.merge(b)
        true_median = statistics.median(values_a + values_b)
        assert merged.quantile(0.5) == pytest.approx(true_median, abs=0.6)


class _Float(float):
    """A float subclass: still a number."""


@pytest.mark.parametrize("bad", ["x", True, None])
@pytest.mark.parametrize("where", [0, 40, 80], ids=["first", "middle", "last"])
def test_bad_batch_changes_nothing(bad, where):
    """A batch holding a non-number raises before any value is folded in."""
    sketch = StreamingHistogram(16)
    sketch.add_all([float(v) for v in range(70)])
    before = serde.histogram_to_dict(sketch)
    values = [_Float(v) / 3 for v in range(80)]
    values.insert(where, bad)
    with pytest.raises(SketchError):
        sketch.add_all(values)
    assert serde.histogram_to_dict(sketch) == before
    sketch.add_all([_Float(0.5), 7])
    assert sketch.total == 72
