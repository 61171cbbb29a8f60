"""Cached column views kept current by appends equal a fresh build.

``Table.mask_data`` (the float64 view of a numeric list column) and
``Table.codes`` (a STR column's dictionary codes) are cached per data
token. When only appends happened since, the cached view is extended by
the appended tail instead of rebuilt; compaction rebuilds it. Either
way the view must be exactly what a build from nothing gives.
"""

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.table as table_module
from repro.storage import Schema, Table
from repro.storage.schema import ColumnDef, DataType

BIG = 2**53 + 1  # past the float64-exact range: no mask view


def _table() -> Table:
    return Table(
        Schema(
            [
                ColumnDef("i", DataType.INT, nullable=True),
                ColumnDef("x", DataType.FLOAT, nullable=True),
                ColumnDef("s", DataType.STR, nullable=True),
            ]
        )
    )


def _fresh(table: Table, kind: str, column: str):
    """The view built from nothing, leaving the table's cache as it was."""
    saved = dict(table._views)
    table._views.clear()
    try:
        return table.mask_data(column) if kind == "mask" else table.codes(column)
    finally:
        table._views.clear()
        table._views.update(saved)


def _assert_same_mask(got, want) -> None:
    if want is None:
        assert got is None
        return
    assert got is not None
    assert numpy.array_equal(got.values, want.values)
    assert (got.nulls is None) == (want.nulls is None)
    if want.nulls is not None:
        assert numpy.array_equal(got.nulls, want.nulls)
    assert (got.int_bound, got.is_int) == (want.int_bound, want.is_int)


def _assert_same_codes(got, want) -> None:
    assert got.codes.dtype == numpy.int32
    assert numpy.array_equal(got.codes, want.codes)
    assert got.values == want.values
    assert got.has_null == want.has_null


def _assert_current(table: Table) -> None:
    for column in ("i", "x"):
        _assert_same_mask(table.mask_data(column), _fresh(table, "mask", column))
    _assert_same_codes(table.codes("s"), _fresh(table, "codes", "s"))


_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-50, 50), st.just(BIG)),
        st.one_of(st.none(), st.floats(-1e3, 1e3, allow_nan=False)),
        st.one_of(st.none(), st.sampled_from(["a", "b", "c", "d"])),
    ),
    min_size=0,
    max_size=6,
)

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _rows),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("compact"), st.none()),
    ),
    min_size=1,
    max_size=12,
)


class TestViewsAfterAppends:
    @settings(max_examples=150, deadline=None)
    @given(steps=_steps)
    def test_a_kept_view_equals_a_fresh_build(self, steps):
        table = _table()
        _assert_current(table)
        for kind, arg in steps:
            if kind == "append":
                table.append_many(arg)
            elif kind == "delete":
                live = table.live_list()
                if live:
                    table.delete(live[arg % len(live)])
            else:
                table.compact()
            _assert_current(table)

    def test_an_append_reads_only_the_tail(self, monkeypatch):
        table = _table()
        table.append_many([(1, 1.0, "a"), (2, None, "b")])
        table.mask_data("i"), table.mask_data("x"), table.codes("s")
        tails = []

        def counting(build):
            def wrapper(tail, *rest):
                tails.append(len(tail))
                return build(tail, *rest)

            return wrapper

        monkeypatch.setattr(table_module, "_mask_view", counting(table_module._mask_view))
        monkeypatch.setattr(table_module, "_codes_view", counting(table_module._codes_view))
        table.append_many([(None, 3.0, None), (4, 4.0, "c")])
        _ = table.mask_data("i"), table.mask_data("x"), table.codes("s")
        assert tails == [2, 2, 2]
        assert table.mask_data("i").nulls.tolist() == [False, False, True, False]
        assert table.codes("s").codes.tolist() == [0, 1, -1, 2]
        assert table.codes("s").values == ("a", "b", "c")
        # compaction rebuilds the whole column
        table.delete(0)
        table.compact()
        del tails[:]
        table.codes("s")
        assert tails == [3]

    def test_a_tail_past_two_to_the_53_drops_the_view(self):
        table = _table()
        table.append_many([(1, 1.0, "a")])
        assert table.mask_data("i").int_bound == 1.0
        table.append_many([(None, 2.0, "a"), (BIG, 3.0, None)])
        assert table.mask_data("i") is None
        table.append_many([(5, 4.0, "b")])
        assert table.mask_data("i") is None
        _assert_current(table)

    @pytest.mark.parametrize("column", ["i", "x"])
    def test_codes_are_for_str_columns_only(self, column):
        table = _table()
        table.append_many([(1, 1.0, "a")])
        assert table.codes(column) is None
        assert table.mask_data("s") is None
