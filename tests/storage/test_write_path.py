"""The storage write path is one batch operation.

``Schema.coerce_columns`` must answer exactly what a ``coerce_row`` loop
answers (values, types, and — for a bad batch — the exception type and
message of the first bad row); ``Table.append_many`` must write a batch
all-or-nothing and tell every observer once.
"""

import types
from collections import OrderedDict

import pytest

from repro.errors import SchemaError
from repro.storage import HashIndex, RowSet, SortedIndex, Table
from repro.storage.schema import ColumnDef, DataType, Schema
from repro.storage.snapshot import load_table, save_table
from repro.storage.vector import FloatColumn

SCHEMA = Schema(
    [
        ColumnDef("t", DataType.TIMESTAMP),
        ColumnDef("f", DataType.FLOAT),
        ColumnDef("k", DataType.INT, nullable=True),
        ColumnDef("s", DataType.STR),
        ColumnDef("b", DataType.BOOL, nullable=True),
    ]
)


def row(**overrides):
    base = {"t": 1.0, "f": 1.0, "k": 7, "s": "x", "b": True}
    base.update(overrides)
    return base


def reference_columns(schema, rows):
    """The per-row reference: one ``coerce_row`` per row, transposed."""
    coerced = [schema.coerce_row(r) for r in rows]
    return [[values[i] for values in coerced] for i in range(len(schema))]


def assert_same_answer(schema, rows):
    """Equal values *and* equal types, or the same exception and message."""
    rows = list(rows)
    try:
        expected = reference_columns(schema, rows)
    except Exception as exc:  # the reference decides what a bad batch raises
        with pytest.raises(type(exc)) as caught:
            schema.coerce_columns(rows)
        assert str(caught.value) == str(exc)
        return
    got = schema.coerce_columns(rows)
    assert got == expected
    assert [[type(v) for v in col] for col in got] == [
        [type(v) for v in col] for col in expected
    ]


class TestCoerceColumns:
    def test_clean_batch(self):
        assert SCHEMA.coerce_columns([row(k=1), row(k=2)]) == [
            [1.0, 1.0],
            [1.0, 1.0],
            [1, 2],
            ["x", "x"],
            [True, True],
        ]

    def test_empty_batch_is_one_empty_list_per_column(self):
        assert SCHEMA.coerce_columns([]) == [[], [], [], [], []]

    def test_generator_input(self):
        assert SCHEMA.coerce_columns(row(k=i) for i in range(3))[2] == [0, 1, 2]

    @pytest.mark.parametrize(
        "rows",
        [
            [row(t=3), row(f=1)],  # int -> float widening
            [row(k=None), row(b=None)],  # NULLs in nullable columns
            [row(), {"t": 2.0, "f": 0.5, "s": "y"}],  # missing nullable keys
            [(1.0, 1.0, 7, "x", True), [2, 0.5, None, "y", None]],  # positional
            [types.MappingProxyType(row()), OrderedDict(row(k=9))],  # non-dict
            [row(), (1.0, 1.0, 7, "x", True)],  # mixed shapes
            [row()],  # one row
        ],
    )
    def test_good_batches_match_the_row_loop(self, rows):
        assert_same_answer(SCHEMA, rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [row(), row(k=True)],  # bool is not int
            [row(), row(f=False)],  # bool is not float
            [row(k="7")],  # str offered to INT
            [row(s=5)],  # int offered to STR
            [row(b=1)],  # int offered to BOOL
            [row(), row(extra=1)],  # unknown key
            [row(), {"t": 1.0, "f": 1.0, "k": 1, "b": True}],  # missing s
            [row(s=None)],  # NULL in a non-nullable column
            [(1.0, 1.0, 7, "x")],  # positional row too short
            [row(k="late"), row(t="early")],  # first bad *row* wins, not column
            [row(s=None, extra=1)],  # unknown key outranks the NULL
            [row(t=10**400)],  # float() overflow, not a SchemaError
        ],
    )
    def test_bad_batches_raise_what_the_row_loop_raises(self, rows):
        assert_same_answer(SCHEMA, rows)

    def test_first_bad_row_decides_the_message(self):
        with pytest.raises(SchemaError, match="expected int, got 'late'"):
            SCHEMA.coerce_columns([row(), row(k="late"), row(t="early")])


class TestFloatColumn:
    def test_extend_grows_once_and_keeps_values(self):
        col = FloatColumn()
        col.extend([0.5] * 5)
        col.extend([float(i) for i in range(1000)])
        assert len(col) == 1005
        assert col[4] == 0.5 and col[5] == 0.0 and col[1004] == 999.0
        assert col.array().tolist()[:5] == [0.5] * 5
        col.extend([])
        assert len(col) == 1005


def make_table(vector_t):
    table = Table(
        SCHEMA,
        name="r",
        vector_columns=("t",) if vector_t else (),
        freshness_column="f",
    )
    return table, HashIndex(table, "k"), SortedIndex(table, "t")


def state_of(table, hash_index, sorted_index):
    return (
        len(table),
        table.allocated,
        list(table.live_mask()),
        {k: hash_index.lookup(k) for k in (None, 1, 7)},
        sorted_index.ascending(),
        table.to_rows(),
    )


@pytest.mark.parametrize("vector_t", [True, False])
class TestAppendMany:
    def test_returns_the_contiguous_rids(self, vector_t):
        table, _, _ = make_table(vector_t)
        assert table.append_many([row(), row()]) == RowSet([0, 1])
        assert table.append_many(row() for _ in range(3)) == RowSet([2, 3, 4])
        assert table.append_many([]) == RowSet.empty()
        assert table.append(row()) == 5

    def test_bad_row_leaves_the_table_untouched(self, vector_t):
        table, hash_index, sorted_index = make_table(vector_t)
        table.append_many([row(k=1), row(f=0.5)])
        seen = []

        class Watcher:
            def on_append(self, rids, columns):
                seen.append(rids)

        table.add_observer(Watcher())
        before = state_of(table, hash_index, sorted_index)
        with pytest.raises(SchemaError, match="expected int, got 'bad'"):
            table.append_many([row(k=1), row(k=1), row(k="bad")])
        assert state_of(table, hash_index, sorted_index) == before
        assert seen == []

    def test_indexes_file_an_out_of_order_batch(self, vector_t):
        table, hash_index, sorted_index = make_table(vector_t)
        table.append_many([row(t=5.0, k=1), row(t=9.0, k=None)])
        table.append_many([row(t=7.0, k=1), row(t=2, k=None), row(t=9.0, k=3)])
        assert hash_index.lookup(1) == RowSet([0, 2])
        assert hash_index.lookup(None) == RowSet([1, 3])
        assert sorted_index.ascending() == [3, 0, 2, 1, 4]
        assert sorted_index.range(5.0, 7.0) == RowSet([0, 2])

    def test_one_out_of_order_row_is_a_bisect_not_a_resort(self, vector_t):
        table, _, sorted_index = make_table(vector_t)
        table.append_many(row(t=float(i)) for i in range(0, 4000, 2))
        compares = []

        def counted(op):
            def compare(self, other):
                compares.append(op)
                return getattr(float, op)(self, other)

            return compare

        Counted = type(
            "Counted",
            (float,),
            {op: counted(op) for op in ("__lt__", "__le__", "__gt__", "__ge__")},
        )
        # an observer sees the stored value, so count on the index's side
        sorted_index.on_append((2000,), [[Counted(1001.0)]])
        assert sorted_index._entries[501] == (1001.0, 2000)
        assert len(compares) <= 2 * 12 + 2  # the tail check, two bisects of 2000

    def test_an_overlapping_batch_merges_only_the_stretch_it_covers(self, vector_t):
        table, _, sorted_index = make_table(vector_t)
        table.append_many(row(t=float(i)) for i in (0, 2, 4, 6, 8))
        table.append_many([row(t=5.0), row(t=3.0), row(t=4.0)])
        assert sorted_index.ascending() == [0, 1, 6, 2, 7, 5, 3, 4]
        table.append_many([row(t=-1.0), row(t=9.0)])
        assert sorted_index.ascending() == [8, 0, 1, 6, 2, 7, 5, 3, 4, 9]

    def test_every_observer_shares_one_rid_sequence(self, vector_t):
        table, _, _ = make_table(vector_t)
        got = []

        class Batch:
            def on_append(self, rids, columns):
                got.append((rids, columns))

        table.add_observer(Batch())
        table.add_observer(Batch())
        rows = table.append_many([row(k=1), row(k=2)])
        (rids_a, columns_a), (rids_b, _) = got
        assert rids_a is rids_b and rids_a is rows.rows
        assert list(rids_a) == [0, 1]
        assert columns_a[2] == [1, 2]

    def test_one_version_bump_per_batch(self, vector_t):
        table, _, _ = make_table(vector_t)
        table.append_many([row()] * 4)
        cached = table.live_list()
        assert cached == [0, 1, 2, 3]
        table.append_many([row()] * 2)
        assert table.live_list() == [0, 1, 2, 3, 4, 5]


class TestSnapshotLoad:
    def test_round_trip_goes_through_the_batch_path(self, tmp_path, monkeypatch):
        table, _, _ = make_table(True)
        table.append_many([row(k=i, f=1.0 - i / 8) for i in range(5)])
        table.delete(2)
        path = tmp_path / "r.jsonl"
        save_table(table, path)
        monkeypatch.setattr(
            Table, "append", lambda *a: pytest.fail("per-row append on load")
        )
        loaded = load_table(path)
        assert loaded.to_rows() == table.to_rows()
