"""Tests for sketch/summary serialization (repro.sketch.serde)."""

import json
import random

import pytest

from repro.errors import SketchError
from repro.sketch import (
    BloomFilter,
    CountMinSketch,
    HyperLogLog,
    ReservoirSample,
    RunningMoments,
    StreamingHistogram,
    TableSummary,
)
from repro.sketch.serde import (
    bloom_from_dict,
    bloom_to_dict,
    countmin_from_dict,
    countmin_to_dict,
    histogram_from_dict,
    histogram_to_dict,
    hll_from_dict,
    hll_to_dict,
    moments_from_dict,
    moments_to_dict,
    reservoir_from_dict,
    reservoir_to_dict,
    summary_from_dict,
    summary_to_dict,
)
from repro.storage import Schema


def roundtrip(data):
    """Force through actual JSON so nothing non-serialisable sneaks in."""
    return json.loads(json.dumps(data))


class TestSketchRoundTrips:
    def test_countmin(self):
        cm = CountMinSketch(width=64, depth=3, seed=9)
        for i in range(500):
            cm.add(f"k{i % 20}")
        restored = countmin_from_dict(roundtrip(countmin_to_dict(cm)))
        assert restored.total == cm.total
        for i in range(20):
            assert restored.estimate(f"k{i}") == cm.estimate(f"k{i}")

    def test_hll(self):
        hll = HyperLogLog(10)
        hll.add_all(range(5000))
        restored = hll_from_dict(roundtrip(hll_to_dict(hll)))
        assert restored.estimate() == hll.estimate()

    def test_bloom(self):
        bloom = BloomFilter.from_capacity(500, 0.01)
        bloom.add_all(range(500))
        restored = bloom_from_dict(roundtrip(bloom_to_dict(bloom)))
        assert all(i in restored for i in range(500))
        assert restored.count == 500
        assert (42_000 in restored) == (42_000 in bloom)

    def test_histogram(self):
        hist = StreamingHistogram(32)
        rng = random.Random(5)
        hist.add_all(rng.gauss(0, 1) for _ in range(2000))
        restored = histogram_from_dict(roundtrip(histogram_to_dict(hist)))
        assert restored.total == hist.total
        assert restored.quantile(0.5) == hist.quantile(0.5)
        assert restored.quantile(0.95) == hist.quantile(0.95)

    def test_moments(self):
        moments = RunningMoments()
        moments.add_all([1.0, 2.5, -3.0])
        restored = moments_from_dict(roundtrip(moments_to_dict(moments)))
        assert restored.count == 3
        assert restored.mean == moments.mean
        assert restored.variance == moments.variance
        assert (restored.min_value, restored.max_value) == (-3.0, 2.5)

    def test_reservoir(self):
        reservoir = ReservoirSample(10, seed=1)
        reservoir.add_all(range(300))
        restored = reservoir_from_dict(roundtrip(reservoir_to_dict(reservoir)))
        assert restored.values() == reservoir.values()
        assert restored.seen == 300
        restored.add(999)  # restored sample keeps working
        assert restored.seen == 301


class TestSummaryRoundTrip:
    @pytest.fixture
    def summary(self):
        schema = Schema.of(t="timestamp", v="float", k="str")
        s = TableSummary("r", schema, reason="decay", time_column="t")
        s.spans = [(0, 5), (9, 12)]
        for i in range(200):
            s.add_row({"t": float(i), "v": i / 3.0, "k": f"k{i % 9}"})
        return s

    def test_metadata_preserved(self, summary):
        restored = summary_from_dict(roundtrip(summary_to_dict(summary)))
        assert restored.table_name == "r"
        assert restored.schema == summary.schema
        assert restored.reason == "decay"
        assert restored.row_count == 200
        assert restored.spans == [(0, 5), (9, 12)]
        assert restored.time_range == (0.0, 199.0)

    def test_all_estimates_identical(self, summary):
        restored = summary_from_dict(roundtrip(summary_to_dict(summary)))
        v, rv = summary.column("v"), restored.column("v")
        assert rv.estimate_mean() == v.estimate_mean()
        assert rv.estimate_quantile(0.9) == v.estimate_quantile(0.9)
        k, rk = summary.column("k"), restored.column("k")
        assert rk.estimate_distinct() == k.estimate_distinct()
        assert rk.estimate_frequency("k3") == k.estimate_frequency("k3")
        for probe in ("k0", "k8", "nope-xyz", "another"):
            assert rk.maybe_contains(probe) == k.maybe_contains(probe)
        assert rk.examples.values() == k.examples.values()

    def test_restored_summary_still_merges(self, summary):
        restored = summary_from_dict(roundtrip(summary_to_dict(summary)))
        merged = restored.merge(summary)
        assert merged.row_count == 400

    def test_version_checked(self, summary):
        data = summary_to_dict(summary)
        data["serde_version"] = 99
        with pytest.raises(SketchError, match="version"):
            summary_from_dict(data)


class TestStoreRoundTrips:
    def test_plain_store(self, decaying):
        from repro.core.distill import Distiller, SummaryStore
        from repro.storage import RowSet

        store = SummaryStore(max_per_table=5)
        distiller = Distiller(store)
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="a")
        distiller.distill_rowset(decaying, RowSet([2]), reason="b")
        restored = SummaryStore.from_dict(roundtrip(store.to_dict()))
        assert restored.max_per_table == 5
        assert restored.total_rows_summarised == 3
        assert [s.row_count for s in restored.for_table("r")] == [2, 1]
        assert restored.merged("r").row_count == 3

    def test_vault(self, decaying):
        from repro.core.distill import Distiller
        from repro.core.vault import SummaryVault
        from repro.storage import RowSet

        vault = SummaryVault(half_life=2.0, compost_below=0.4)
        distiller = Distiller(vault)
        distiller.distill_rowset(decaying, RowSet([0]), reason="old")
        for tick in range(1, 6):
            vault.on_tick(tick)
        distiller.distill_rowset(decaying, RowSet([1]), reason="new")
        vault.on_tick(6)

        restored = SummaryVault.from_dict(roundtrip(vault.to_dict()))
        assert restored.composted_summaries == vault.composted_summaries
        assert restored.fresh_count("r") == vault.fresh_count("r")
        assert restored.to_dict()["entries"] == vault.to_dict()["entries"]
        assert restored.merged("r").row_count == vault.merged("r").row_count
        # the restored vault keeps decaying
        for tick in range(7, 40):
            restored.on_tick(tick)
        assert restored.fresh_count("r") == 0
