"""Tests for repro.storage.index."""

import pytest

from repro.storage import Catalog, HashIndex, RowSet, Schema, SortedIndex
from repro.storage.schema import ColumnDef, DataType


class TestHashIndex:
    def test_initial_build(self, table):
        index = HashIndex(table, "key")
        assert index.lookup("a") == RowSet([1, 3, 5, 7, 9])
        assert len(index) == 10

    def test_lookup_missing(self, table):
        index = HashIndex(table, "key")
        assert index.lookup("zzz") == RowSet.empty()

    def test_tracks_append(self, table):
        index = HashIndex(table, "key")
        rid = table.append((10.0, 1.0, 100, "c"))
        assert index.lookup("c") == RowSet([rid])

    def test_tracks_delete(self, table):
        index = HashIndex(table, "key")
        table.delete(1)
        assert 1 not in index.lookup("a")
        assert len(index) == 9

    def test_tracks_compaction(self, table):
        index = HashIndex(table, "key")
        table.delete(0)
        table.compact()
        # old rid 2 (key 'b') is now rid 1
        assert 1 in index.lookup("b")
        assert len(index) == 9


class TestSortedIndex:
    def test_range_inclusive(self, table):
        index = SortedIndex(table, "t")
        assert index.range(3.0, 5.0) == RowSet([3, 4, 5])

    def test_range_exclusive_bounds(self, table):
        index = SortedIndex(table, "t")
        assert index.range(3.0, 5.0, include_low=False, include_high=False) == RowSet([4])

    def test_range_open_ended(self, table):
        index = SortedIndex(table, "t")
        assert index.range(low=8.0) == RowSet([8, 9])
        assert index.range(high=1.0) == RowSet([0, 1])
        assert index.range() == RowSet(range(10))

    def test_min_max(self, table):
        index = SortedIndex(table, "t")
        assert index.min_value() == 0.0
        assert index.max_value() == 9.0

    def test_min_max_empty(self, schema):
        from repro.storage import Table

        empty = Table(schema)
        index = SortedIndex(empty, "t")
        assert index.min_value() is None
        assert index.max_value() is None

    def test_tracks_append_in_order(self, table):
        index = SortedIndex(table, "t")
        table.append((4.5, 1.0, 0, "c"))
        assert index.range(4.0, 5.0) == RowSet([4, 5, 10])

    def test_lazy_delete(self, table):
        index = SortedIndex(table, "t")
        table.delete(4)
        assert index.range(3.0, 5.0) == RowSet([3, 5])
        assert len(index) == 9

    def test_purge_after_many_deletes(self, table):
        index = SortedIndex(table, "t")
        for rid in range(8):
            table.delete(rid)
        assert len(index) == 2
        assert index.range() == RowSet([8, 9])

    def test_tracks_compaction(self, table):
        index = SortedIndex(table, "t")
        table.delete(0)
        table.delete(1)
        table.compact()
        assert index.range(2.0, 3.0) == RowSet([0, 1])

    def test_ascending(self, table):
        index = SortedIndex(table, "t")
        table.delete(5)
        assert index.ascending() == [0, 1, 2, 3, 4, 6, 7, 8, 9]

    def test_min_after_delete(self, table):
        index = SortedIndex(table, "t")
        table.delete(0)
        assert index.min_value() == 1.0


def _nullable_table(rows):
    catalog = Catalog()
    schema = Schema(
        [ColumnDef("k", DataType.INT), ColumnDef("v", DataType.FLOAT, nullable=True)]
    )
    table = catalog.create_table("r", schema)
    table.append_many(rows)
    return catalog, table


def _filtered(table, low=None, high=None):
    """What a range predicate over ``to_rows()`` selects: NULL never does."""
    return RowSet(
        rid
        for rid, row in zip(table.live_list(), table.to_rows())
        if row["v"] is not None
        and (low is None or row["v"] >= low)
        and (high is None or row["v"] <= high)
    )


class TestSortedIndexNullKeys:
    """A sorted index on a nullable column keeps no NULL keys."""

    def test_null_in_an_appended_batch(self):
        catalog, table = _nullable_table([{"k": 0, "v": 0.25}, {"k": 1, "v": 0.75}])
        index = catalog.create_sorted_index("r", "v")
        table.append_many([{"k": 2, "v": None}, {"k": 3, "v": 0.5}])
        assert table.allocated == 4
        assert len(index) == 3
        assert index.range(0.0, 1.0) == _filtered(table, 0.0, 1.0) == RowSet([0, 1, 3])
        assert index.range() == _filtered(table)
        assert index.ascending() == [0, 3, 1]

    def test_index_built_over_existing_nulls(self):
        catalog, table = _nullable_table(
            [{"k": i, "v": None if i % 3 == 0 else i / 10} for i in range(9)]
        )
        index = catalog.create_sorted_index("r", "v")
        assert len(index) == 6
        assert index.range(0.2, 0.7) == _filtered(table, 0.2, 0.7) == RowSet([2, 4, 5, 7])
        assert index.range(high=0.5) == _filtered(table, high=0.5)

    def test_delete_and_compact_after_a_null_append(self):
        catalog, table = _nullable_table([{"k": 0, "v": 0.25}])
        index = catalog.create_sorted_index("r", "v")
        table.append_many(
            [{"k": 1, "v": None}, {"k": 2, "v": 0.5}, {"k": 3, "v": None}]
        )
        table.delete(1)  # a NULL row: nothing of it was indexed
        assert len(index) == 2
        table.delete(2)
        assert len(index) == 1
        assert index.range() == _filtered(table) == RowSet([0])
        table.compact()  # live rids 0 (0.25) and 3 (NULL) become 0 and 1
        assert len(index) == 1
        table.append_many([{"k": 4, "v": 0.1}, {"k": 5, "v": None}])
        assert len(index) == 2
        assert index.range() == _filtered(table) == RowSet([0, 2])
        assert index.ascending() == [2, 0]


def test_a_hash_index_on_an_array_column_skips_nan_keys():
    from repro.storage import Table

    table = Table(Schema.of(x="float"), vector_columns=("x",))
    table.append_many([{"x": 1.0}, {"x": float("nan")}])
    index = HashIndex(table, "x")  # built over a NaN
    table.append({"x": float("nan")})  # and appended one
    table.delete_many([1, 2])  # read back off the array: new NaN objects
    assert len(index) == 1 and index.lookup(float("nan")) == RowSet.empty()
    assert index.lookup(1.0) == RowSet([0]) and len(table) == 1
