"""Tests for repro.storage.stats."""

from repro.storage import Schema, Table
from repro.storage.schema import ColumnDef, DataType
from repro.storage.stats import planner_stats


class TestCollectStats:
    def test_basic(self, table):
        stats = planner_stats(table)
        assert stats.live_rows == 10
        v = stats.column("v")
        assert (v.min_value, v.max_value) == (0, 81)
        assert v.distinct == 10
        assert v.nulls == 0

    def test_live_only(self, table):
        table.delete(9)
        stats = planner_stats(table)
        assert stats.live_rows == 9
        assert stats.column("v").max_value == 64

    def test_nulls_counted(self):
        schema = Schema([ColumnDef("x", DataType.INT, nullable=True)])
        table = Table(schema)
        table.append((1,))
        table.append((None,))
        stats = planner_stats(table)
        assert stats.column("x").nulls == 1
        assert stats.column("x").distinct == 1

    def test_all_null_column_min_max_none(self):
        schema = Schema([ColumnDef("x", DataType.INT, nullable=True)])
        table = Table(schema)
        table.append((None,))
        col = planner_stats(table).column("x")
        assert col.min_value is None and col.max_value is None

    def test_column_unknown_raises(self, table):
        import pytest

        with pytest.raises(KeyError):
            planner_stats(table).column("zzz")
