"""Tests for repro.storage.table."""

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage import RowSet, Table


@pytest.fixture
def empty(schema):
    return Table(schema, name="r")


class TestAppend:
    def test_rids_are_sequential(self, empty):
        rids = [empty.append((float(i), 1.0, i, "k")) for i in range(3)]
        assert rids == [0, 1, 2]

    def test_append_coerces(self, empty):
        rid = empty.append({"t": 1, "f": 1, "v": 2, "key": "k"})
        assert empty.row(rid) == (1.0, 1.0, 2, "k")

    def test_append_rejects_bad_type(self, empty):
        with pytest.raises(SchemaError):
            empty.append({"t": 1.0, "f": 1.0, "v": "nope", "key": "k"})

    def test_append_many_returns_span(self, empty):
        rows = empty.append_many([(0.0, 1.0, 1, "a"), (1.0, 1.0, 2, "b")])
        assert rows == RowSet([0, 1])

    def test_len_counts_live(self, table):
        assert len(table) == 10
        assert table.allocated == 10


class TestDelete:
    def test_delete_reduces_live(self, table):
        table.delete(3)
        assert len(table) == 9
        assert table.tombstones == 1
        assert not table.is_live(3)

    def test_delete_twice_fails(self, table):
        table.delete(3)
        with pytest.raises(StorageError, match="deleted"):
            table.delete(3)

    def test_delete_out_of_range(self, table):
        with pytest.raises(StorageError, match="out of range"):
            table.delete(99)

    def test_delete_rows(self, table):
        table.delete_rows(RowSet([1, 2, 3]))
        assert len(table) == 7

    def test_read_deleted_fails(self, table):
        table.delete(3)
        with pytest.raises(StorageError):
            table.row(3)


class TestReadsAndUpdate:
    def test_value(self, table):
        assert table.value(4, "v") == 16

    def test_row_dict(self, table):
        assert table.row_dict(2) == {"t": 2.0, "f": 1.0, "v": 4, "key": "b"}

    def test_update(self, table):
        table.update(2, "f", 0.5)
        assert table.value(2, "f") == 0.5

    def test_update_coerces_type(self, table):
        with pytest.raises(SchemaError):
            table.update(2, "v", "oops")

    def test_column_values_live_only(self, table):
        table.delete(0)
        values = table.column_values("v")
        assert values[0] == 1 and len(values) == 9

    def test_column_values_subset(self, table):
        assert table.column_values("v", RowSet([2, 4])) == [4, 16]

    def test_column_values_subset_rejects_dead(self, table):
        table.delete(2)
        with pytest.raises(StorageError):
            table.column_values("v", RowSet([2]))

    def test_scan_with_predicate(self, table):
        rows = table.scan(lambda r: r["v"] > 50)
        assert rows == RowSet([8, 9])

    def test_scan_without_predicate(self, table):
        assert table.scan() == RowSet(range(10))

    def test_to_rows(self, table):
        rows = table.to_rows()
        assert len(rows) == 10
        assert rows[3]["v"] == 9


class TestNeighbours:
    def test_basic(self, table):
        assert (table.prev_live(5), table.next_live(5)) == (4, 6)

    def test_skips_tombstones(self, table):
        table.delete(4)
        table.delete(6)
        assert (table.prev_live(5), table.next_live(5)) == (3, 7)

    def test_neighbours_of_dead_row(self, table):
        table.delete(5)
        assert (table.prev_live(5), table.next_live(5)) == (4, 6)

    def test_edges(self, table):
        assert table.prev_live(0) is None
        assert table.next_live(9) is None

    def test_out_of_range(self, table):
        with pytest.raises(StorageError):
            table.prev_live(50)


class TestCompaction:
    def test_noop_when_no_tombstones(self, table):
        assert table.compact() == {}
        assert table.generation == 0

    def test_remap_preserves_order(self, table):
        table.delete(0)
        table.delete(5)
        remap = table.compact()
        assert remap[1] == 0
        assert remap[9] == 7
        assert len(table) == 8
        assert table.tombstones == 0
        assert table.generation == 1

    def test_values_survive_compaction(self, table):
        table.delete(0)
        remap = table.compact()
        assert table.value(remap[7], "v") == 49


class TestObservers:
    class Recorder:
        def __init__(self):
            self.events = []

        def on_append(self, rid, values):
            self.events.append(("append", rid))

        def on_delete(self, rid, values):
            self.events.append(("delete", rid, values[2]))

        def on_compact(self, remap):
            self.events.append(("compact", dict(remap)))

    def test_observer_sees_mutations(self, table):
        rec = self.Recorder()
        table.add_observer(rec)
        rid = table.append((10.0, 1.0, 100, "a"))
        table.delete(rid)
        table.compact()
        assert ("append", rid) in rec.events
        assert ("delete", rid, 100) in rec.events
        assert rec.events[-1][0] == "compact"
