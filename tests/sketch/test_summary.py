"""Tests for repro.sketch.summary."""

import pytest

from repro.errors import DistillError
from repro.sketch.summary import ColumnSummary, SummaryConfig, TableSummary
from repro.storage import Schema
from repro.storage.schema import DataType


@pytest.fixture
def summary():
    schema = Schema.of(t="timestamp", v="float", key="str")
    s = TableSummary("r", schema, time_column="t")
    for i in range(100):
        s.add_row({"t": float(i), "v": i / 10.0, "key": f"k{i % 7}"})
    return s


class TestColumnSummary:
    def test_numeric_gets_moments_and_histogram(self):
        col = ColumnSummary("x", DataType.FLOAT, SummaryConfig())
        assert col.moments is not None and col.histogram is not None

    def test_string_has_no_moments(self):
        col = ColumnSummary("x", DataType.STR, SummaryConfig())
        assert col.moments is None
        assert col.estimate_mean() is None
        assert col.estimate_quantile(0.5) is None

    def test_null_counting(self):
        col = ColumnSummary("x", DataType.STR, SummaryConfig())
        col.add(None)
        col.add("a")
        assert col.nulls == 1 and col.count == 2

    def test_merge_type_mismatch(self):
        a = ColumnSummary("x", DataType.STR, SummaryConfig())
        b = ColumnSummary("y", DataType.STR, SummaryConfig())
        with pytest.raises(DistillError):
            a.merge(b)

    def test_memory_cells_positive(self):
        col = ColumnSummary("x", DataType.FLOAT, SummaryConfig())
        assert col.memory_cells() > 0


class TestTableSummary:
    def test_row_count_exact(self, summary):
        assert summary.row_count == 100
        assert summary.column("v").count == 100

    def test_time_range_tracked(self, summary):
        assert summary.time_range == (0.0, 99.0)

    def test_distinct_estimate(self, summary):
        assert summary.column("key").estimate_distinct() == pytest.approx(7, abs=1)

    def test_frequency_estimate(self, summary):
        est = summary.column("key").estimate_frequency("k0")
        assert est >= 15  # true count 15, count-min never under

    def test_membership(self, summary):
        assert summary.column("key").maybe_contains("k3")
        # unseen keys are *usually* absent; just assert no false negative

    def test_quantiles(self, summary):
        assert summary.column("v").estimate_quantile(0.5) == pytest.approx(4.95, abs=0.5)

    def test_mean(self, summary):
        assert summary.column("v").estimate_mean() == pytest.approx(4.95, abs=0.01)

    def test_unknown_column(self, summary):
        with pytest.raises(DistillError):
            summary.column("zzz")

    def test_describe_mentions_rows(self, summary):
        assert "100 rows" in summary.describe()


class TestTableSummaryMerge:
    def test_merge_combines_everything(self):
        schema = Schema.of(t="timestamp", v="float")
        a = TableSummary("r", schema, time_column="t", reason="decay")
        b = TableSummary("r", schema, time_column="t", reason="consume")
        for i in range(50):
            a.add_row({"t": float(i), "v": 1.0})
        for i in range(50, 80):
            b.add_row({"t": float(i), "v": 3.0})
        a.spans = [(0, 50)]
        b.spans = [(50, 80)]
        merged = a.merge(b)
        assert merged.row_count == 80
        assert merged.time_range == (0.0, 79.0)
        assert merged.spans == [(0, 50), (50, 80)]
        assert merged.column("v").estimate_mean() == pytest.approx(
            (50 * 1.0 + 30 * 3.0) / 80
        )

    def test_merge_reason_counts_leaves(self):
        schema = Schema.of(v="float")
        parts = [TableSummary("r", schema) for _ in range(3)]
        merged = parts[0].merge(parts[1]).merge(parts[2])
        assert merged.reason == "merged[3 summaries]"

    def test_merge_schema_mismatch(self):
        a = TableSummary("r", Schema.of(v="float"))
        b = TableSummary("r", Schema.of(w="float"))
        with pytest.raises(DistillError):
            a.merge(b)

    def test_merge_table_mismatch(self):
        a = TableSummary("r", Schema.of(v="float"))
        b = TableSummary("s", Schema.of(v="float"))
        with pytest.raises(DistillError):
            a.merge(b)

    def test_memory_cells_sums_columns(self, summary):
        assert summary.memory_cells() == sum(
            col.memory_cells() for col in summary.columns.values()
        )


class TestProbeSpelling:
    """A lookup must find a number whatever way the literal is spelled."""

    @pytest.fixture
    def rotted(self):
        from repro import FungusDB, LinearDecayFungus

        db = FungusDB(seed=1)
        db.create_table(
            "r", Schema.of(temp="float", n="int"), fungus=LinearDecayFungus(rate=1.0)
        )
        db.insert("r", {"temp": 22, "n": 22})
        db.insert("r", {"temp": 22.0, "n": 5})
        db.tick(2)
        assert db.extent("r") == 0
        return db.merged_summary("r")

    def test_int_probe_on_float_column(self, rotted):
        temp = rotted.column("temp")
        assert temp.maybe_contains(22) and temp.maybe_contains(22.0)
        assert temp.estimate_frequency(22) == temp.estimate_frequency(22.0) == 2

    def test_int_probe_on_timestamp_column(self, rotted):
        assert rotted.column("t").maybe_contains(0)
        assert rotted.column("t").estimate_frequency(0) == 2

    def test_integral_float_probe_on_int_column(self, rotted):
        n = rotted.column("n")
        assert n.maybe_contains(22.0) and n.estimate_frequency(22.0) == 1
        assert not n.maybe_contains(22.5) and n.estimate_frequency(22.5) == 0

    @pytest.mark.parametrize("probe", ["22", True, None, float("nan")])
    def test_probe_the_column_cannot_hold(self, rotted, probe):
        assert not rotted.column("n").maybe_contains(probe)
        assert rotted.column("n").estimate_frequency(probe) == 0


class TestAddColumns:
    def test_unequal_lengths_rejected(self):
        s = TableSummary("r", Schema.of(t="timestamp", v="float"), time_column="t")
        with pytest.raises(DistillError):
            s.add_columns({"t": [0.0, 1.0], "v": [1.0]})
        assert s.row_count == 0

    def test_missing_column_counts_as_null(self):
        s = TableSummary("r", Schema.of(t="timestamp", v="float"), time_column="t")
        s.add_columns({"t": [3.0, 1.0, None]})
        assert s.row_count == 3 and s.time_range == (1.0, 3.0)
        assert s.column("v").nulls == 3 and s.column("t").nulls == 1
