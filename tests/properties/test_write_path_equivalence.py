"""A batch write leaves exactly what the per-row path left.

The per-row steps of the old write path — ``coerce_row``, one append per
column, ``setdefault(...).add`` on the hash index,
``insort`` on the sorted index, one event per row — live on here as
the reference model. ``Table.append_many`` and
``DecayingTable.insert_many`` must agree with it on both backends, and a
batch with a bad row must raise what the reference raises for its first
bad row while leaving nothing behind.
"""

from __future__ import annotations

import bisect
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import DecayClock
from repro.core.events import TupleInsertedBatch
from repro.core.table import DecayingTable
from repro.storage import HashIndex, RowSet, SortedIndex, Table
from repro.storage.schema import ColumnDef, DataType, Schema

SCHEMA = Schema(
    [
        ColumnDef("t", DataType.TIMESTAMP),
        ColumnDef("f", DataType.FLOAT),
        ColumnDef("k", DataType.INT, nullable=True),
        ColumnDef("s", DataType.STR),
        ColumnDef("b", DataType.BOOL, nullable=True),
    ]
)
T, K = 0, 2


class PerRowModel:
    """What the row-at-a-time write path would have built."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.live: list[bool] = []
        self.buckets: dict = {}
        self.entries: list[tuple] = []

    def append(self, values: tuple) -> int:
        rid = len(self.rows)
        self.rows.append(values)
        self.live.append(True)
        self.buckets.setdefault(values[K], set()).add(rid)
        bisect.insort(self.entries, (values[T], rid))
        return rid

    def delete(self, rid: int) -> None:
        self.live[rid] = False
        self.buckets[self.rows[rid][K]].discard(rid)

    def write(self, rows: list) -> RowSet:
        """All-or-nothing: coerce every row first, as the contract says."""
        coerced = [SCHEMA.coerce_row(row) for row in rows]
        return RowSet([self.append(values) for values in coerced])


good_cells = {
    "t": st.one_of(
        st.integers(min_value=0, max_value=6),  # widened, and full of duplicates
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    ),
    "f": st.one_of(st.just(1.0), st.just(1), st.floats(min_value=0.0, max_value=1.0)),
    "k": st.one_of(st.none(), st.integers(min_value=-3, max_value=3)),
    "s": st.text(max_size=3),
    "b": st.one_of(st.none(), st.booleans()),
}
bad_cells = st.sampled_from(
    [
        ("k", True),  # bool offered to INT
        ("f", False),  # bool offered to FLOAT
        ("k", "7"),  # str offered to INT
        ("t", "now"),
        ("s", None),  # NULL in a non-nullable column
        ("b", 0),
        ("extra", 1),  # unknown key
        ("s", ...),  # marker: drop the key (missing non-nullable)
    ]
)


@st.composite
def rows(draw, allow_bad: bool):
    cells = {name: draw(strategy) for name, strategy in good_cells.items()}
    if allow_bad and draw(st.integers(min_value=0, max_value=7)) == 0:
        name, value = draw(bad_cells)
        if value is ...:
            del cells[name]
        else:
            cells[name] = value
    shape = draw(st.sampled_from(["dict", "dict", "dict", "sparse", "proxy", "tuple"]))
    if shape == "sparse":
        # nullable columns may be left out of a mapping row
        return {k: v for k, v in cells.items() if not (k in ("k", "b") and v is None)}
    if shape == "proxy":
        return types.MappingProxyType(cells)
    if shape == "tuple" and set(cells) == set(SCHEMA.names):
        return tuple(cells[name] for name in SCHEMA.names)
    return cells


def batches(allow_bad: bool):
    return st.lists(st.lists(rows(allow_bad), max_size=12), min_size=1, max_size=4)


def make_table(vector_t: bool):
    table = Table(
        SCHEMA,
        name="r",
        vector_columns=("t",) if vector_t else (),
        freshness_column="f",
    )
    return table, HashIndex(table, "k"), SortedIndex(table, "t")


def assert_matches(table, hash_index, sorted_index, model: PerRowModel) -> None:
    assert table.allocated == len(model.rows)
    assert len(table) == sum(model.live)
    assert list(table.live_mask()) == model.live
    for rid, values in enumerate(model.rows):
        if model.live[rid]:
            got = table.row(rid)
            assert got == values
            assert [type(v) for v in got] == [type(v) for v in values]
    for key in (None, *range(-3, 4)):
        expected = RowSet(r for r in model.buckets.get(key, ()) if model.live[r])
        assert hash_index.lookup(key) == expected
    in_order = [rid for _, rid in model.entries if model.live[rid]]
    assert sorted_index.ascending() == in_order
    for low, high in ((None, None), (1, 4.5), (2.0, 2.0), (5, None)):
        expected = RowSet(
            rid
            for value, rid in model.entries
            if model.live[rid]
            and (low is None or value >= low)
            and (high is None or value <= high)
        )
        assert sorted_index.range(low, high) == expected


@settings(max_examples=120, deadline=None)
@given(
    data=batches(allow_bad=True),
    vector_t=st.booleans(),
    as_generator=st.booleans(),
    victims=st.sets(st.integers(min_value=0, max_value=40), max_size=6),
)
def test_append_many_matches_the_per_row_model(data, vector_t, as_generator, victims):
    table, hash_index, sorted_index = make_table(vector_t)
    model = PerRowModel()
    for number, batch in enumerate(data):
        try:
            expected = model.write(batch)
        except Exception as exc:
            try:
                table.append_many(iter(batch) if as_generator else batch)
            except Exception as got:
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                raise AssertionError(f"batch accepted; the row loop raised {exc!r}")
        else:
            assert table.append_many(iter(batch) if as_generator else batch) == expected
        if number == 0:
            # tombstones between batches: indexes carry dead entries along
            for rid in sorted(victims):
                if rid < len(model.rows):
                    table.delete(rid)
                    model.delete(rid)
        assert_matches(table, hash_index, sorted_index, model)


ATTRIBUTES = Schema(SCHEMA.columns[2:])


def attribute_rows(allow_bad: bool):
    def strip(row):
        if isinstance(row, tuple):
            return row[2:]
        kept = {k: v for k, v in row.items() if k not in ("t", "f")}
        return kept if isinstance(row, dict) else types.MappingProxyType(kept)

    return rows(allow_bad).map(strip)


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.lists(attribute_rows(allow_bad=True), max_size=10), min_size=1, max_size=4
    ),
)
def test_insert_many_matches_a_loop_of_inserts(data):
    """Batch table vs. one ``insert`` per row: same rows, ``t``/``f``,
    exhausted set, returned rids and inserted ``(tick, rid)`` stream."""

    def build():
        clock = DecayClock()
        table = DecayingTable("r", ATTRIBUTES, clock)
        index = HashIndex(table.storage, "k"), SortedIndex(table.storage, "t")
        seen: list = []
        table.bus.subscribe(
            TupleInsertedBatch,
            lambda e: seen.extend((e.tick, rid) for rid in range(e.start, e.stop)),
        )
        return table, index, seen

    batched, (b_hash, b_sorted), b_seen = build()
    looped, (l_hash, l_sorted), l_seen = build()
    for batch in data:
        try:
            coerced = [ATTRIBUTES.coerce_row(row) for row in batch]
        except Exception as exc:
            before = (len(batched), batched.storage.allocated, len(b_seen))
            try:
                batched.insert_many(batch)
            except Exception as got:
                assert type(got) is type(exc) and str(got) == str(exc)
            else:
                raise AssertionError(f"batch accepted; the row loop raised {exc!r}")
            assert (len(batched), batched.storage.allocated, len(b_seen)) == before
        else:
            expected = RowSet([looped.insert(row) for row in batch])
            assert batched.insert_many(batch) == expected
            now = batched.clock.now
            for rid, values in zip(expected, coerced):
                assert batched.storage.row(rid) == (now, 1.0, *values)
        batched.clock.advance(1)
        looped.clock.advance(1)
    assert batched.rows() == looped.rows()
    assert list(batched.storage.live_mask()) == list(looped.storage.live_mask())
    assert batched.exhausted == looped.exhausted == RowSet.empty()
    assert b_sorted.ascending() == l_sorted.ascending()
    for key in (None, *range(-3, 4)):
        assert b_hash.lookup(key) == l_hash.lookup(key)
    assert b_seen == l_seen
    assert [rid for _, rid in b_seen] == list(range(batched.storage.allocated))
    assert batched.bus.counts == looped.bus.counts
