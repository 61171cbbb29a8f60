"""Tests for repro.obs.metrics."""

import math

import pytest

from repro.errors import ObsError
from repro.obs.metrics import (
    Counter,
    EWMARate,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_inc_rejected(self):
        with pytest.raises(ObsError):
            Counter().inc(-1)

    def test_uncount_floors_at_zero(self):
        c = Counter()
        c.inc(3)
        c.uncount(5)
        assert c.value == 0.0

    def test_uncount_negative_rejected(self):
        with pytest.raises(ObsError):
            Counter().uncount(-1)


class TestGauge:
    def test_set_and_inc(self):
        g = Gauge()
        g.set(5)
        g.inc(-2)
        assert g.value == 3.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = Histogram(buckets=(1, 10, 100))
        for v in (0.5, 5, 5, 50, 5000):
            h.observe(v)
        assert h.counts == [1, 2, 1]  # 5000 is beyond every bound
        assert h.count == 5
        assert h.sum == pytest.approx(5060.5)

    def test_cumulative_ends_with_inf(self):
        h = Histogram(buckets=(1, 10))
        h.observe(0.5)
        h.observe(999)
        pairs = h.cumulative()
        assert pairs == [(1.0, 1), (10.0, 1), (math.inf, 2)]

    def test_empty_buckets_rejected(self):
        with pytest.raises(ObsError):
            Histogram(buckets=())


class TestEWMARate:
    def test_value_is_mass_over_tau(self):
        r = EWMARate(tau=10.0)
        r.mark(5.0, now=0.0)
        assert r.value == pytest.approx(0.5)

    def test_decay_is_deterministic(self):
        r = EWMARate(tau=10.0)
        r.mark(10.0, now=0.0)
        # after 10 ticks of silence the mass has decayed by e^-1
        assert r.value_at(10.0) == pytest.approx(10.0 * math.exp(-1.0) / 10.0)

    def test_marks_accumulate_with_decay(self):
        r = EWMARate(tau=10.0)
        r.mark(1.0, now=0.0)
        r.mark(1.0, now=10.0)
        assert r.value == pytest.approx((math.exp(-1.0) + 1.0) / 10.0)

    def test_unmarked_rate_is_zero(self):
        r = EWMARate(tau=10.0)
        assert r.value == 0.0
        assert r.value_at(100.0) == 0.0

    def test_bad_tau_rejected(self):
        with pytest.raises(ObsError):
            EWMARate(tau=0.0)


class TestRegistry:
    def test_labelled_children_are_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("rows_total", "rows", ("table",))
        family.labels(table="a").inc(2)
        family.labels(table="b").inc(1)
        assert registry.value("rows_total", table="a") == 2.0
        assert registry.value("rows_total", table="b") == 1.0

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_schema_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labelnames=("table",))
        with pytest.raises(ObsError):
            registry.gauge("x_total", labelnames=("table",))
        with pytest.raises(ObsError):
            registry.counter("x_total", labelnames=("other",))

    def test_wrong_labels_raise(self):
        registry = MetricsRegistry()
        family = registry.counter("x_total", labelnames=("table",))
        with pytest.raises(ObsError):
            family.labels(nope="a")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ObsError):
            registry.counter("bad name")
        with pytest.raises(ObsError):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_label_free_passthrough(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(2)
        registry.ewma("r", tau=5.0).mark(5.0, now=0.0)
        assert registry.value("c_total") == 3.0
        assert registry.value("g") == 7.0
        assert registry.value("h") == 1.0  # histograms report their count
        assert registry.value("r") == pytest.approx(1.0)

    def test_unknown_metric_value_raises(self):
        with pytest.raises(ObsError):
            MetricsRegistry().value("nope")

    def test_families_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.gauge("a").set(1)
        assert [f.name for f in registry.families()] == ["a", "b_total"]
