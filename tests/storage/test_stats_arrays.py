"""Planner statistics off the column arrays == the list implementation.

``reference_column_stats`` is the per-value implementation the array
kernel replaced, kept here as the oracle: on every finite input the two
must agree field for field, Python types of ``min_value``/``max_value``
included.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import Schema, Table
from repro.storage.schema import ColumnDef, DataType
from repro.storage.stats import (
    DEFAULT_HISTOGRAM_BINS,
    ColumnHistogram,
    ColumnStats,
    planner_stats,
)

NUMERIC = (DataType.INT, DataType.FLOAT, DataType.TIMESTAMP)


def reference_histogram(values, bins=DEFAULT_HISTOGRAM_BINS):
    numeric = [
        float(v)
        for v in values
        if v is not None and isinstance(v, (int, float)) and not isinstance(v, bool)
    ]
    if not numeric or len(numeric) != sum(1 for v in values if v is not None):
        return None
    low, high = min(numeric), max(numeric)
    if low == high:
        return ColumnHistogram(low=low, high=high, counts=(len(numeric),), total=len(numeric))
    width = (high - low) / bins
    if width == 0.0:
        return None
    counts = [0] * bins
    for v in numeric:
        counts[min(int((v - low) / width), bins - 1)] += 1
    return ColumnHistogram(low=low, high=high, counts=tuple(counts), total=len(numeric))


def reference_column_stats(table, name):
    dtype = table.schema.column(name).dtype
    values = table.column_values(name)
    non_null = [v for v in values if v is not None]
    return ColumnStats(
        name=name,
        dtype=dtype,
        count=len(values),
        nulls=len(values) - len(non_null),
        distinct=len(set(non_null)),
        min_value=min(non_null) if non_null else None,
        max_value=max(non_null) if non_null else None,
        histogram=(reference_histogram(values) if dtype in NUMERIC else None),
    )


def assert_same_stats(table, name):
    got = planner_stats(table).column(name)
    want = reference_column_stats(table, name)
    assert got == want
    assert type(got.min_value) is type(want.min_value)
    assert type(got.max_value) is type(want.max_value)
    if got.histogram is not None:
        assert all(type(n) is int for n in got.histogram.counts)
        assert type(got.histogram.low) is float and type(got.histogram.high) is float


SCHEMA = Schema(
    [
        ColumnDef("t", DataType.TIMESTAMP),
        ColumnDef("f", DataType.FLOAT),
        ColumnDef("i", DataType.INT, nullable=True),
        ColumnDef("x", DataType.FLOAT, nullable=True),
        ColumnDef("ts", DataType.TIMESTAMP, nullable=True),
        ColumnDef("s", DataType.STR, nullable=True),
        ColumnDef("b", DataType.BOOL, nullable=True),
    ]
)

# spans stay below the largest double; test_span_overflow covers the rest
finite = st.floats(min_value=-1e300, max_value=1e300)
rows = st.tuples(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0),
    st.none() | st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1),
    # a narrow range next to the full one, so histograms see repeats
    st.none() | finite | st.sampled_from([0.0, -0.0, 0.5, 1.5, 2.5]),
    st.none() | st.floats(min_value=0.0, max_value=1e9),
    st.none() | st.text(max_size=3),
    st.none() | st.booleans(),
)


@pytest.mark.parametrize("vectorized", [False, True], ids=["lists", "vector-tf"])
@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(rows, max_size=80),
    dead=st.sets(st.integers(min_value=0, max_value=79)),
)
def test_array_stats_equal_the_list_path(vectorized, data, dead):
    """NULLs, tombstones, one distinct value and the empty table included."""
    table = Table(
        SCHEMA,
        vector_columns=("t", "f") if vectorized else (),
        freshness_column="f" if vectorized else None,
    )
    for row in data:
        table.append(row)
    for rid in dead:
        if table.is_live(rid):
            table.delete(rid)
    for name in SCHEMA.names:
        assert_same_stats(table, name)
    table.compact()
    for name in SCHEMA.names:
        assert_same_stats(table, name)


def test_bin_edges_follow_the_list_expression():
    """Values on and next to every bin edge land where ``int((v - low) / width)`` puts them."""
    table = Table(Schema.of(x="float"))
    low, high = 0.1, 0.7
    width = (high - low) / DEFAULT_HISTOGRAM_BINS
    for k in range(DEFAULT_HISTOGRAM_BINS + 1):
        edge = low + k * width
        for v in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
            if low <= v <= high:
                table.append((v,))
    table.append((high,))
    assert_same_stats(table, "x")


def test_int_past_float_exact_range_takes_the_object_path():
    table = Table(Schema([ColumnDef("i", DataType.INT, nullable=True)]))
    for v in (2**53 + 1, 2**53, None, -3, 2**53 + 1):
        table.append((v,))
    table.delete(3)
    assert table.mask_data("i") is None  # no exact float64 view
    assert_same_stats(table, "i")
    stats = planner_stats(table).column("i")
    # a float64 round-trip would have folded these two into one
    assert (stats.min_value, stats.max_value, stats.distinct) == (2**53, 2**53 + 1, 2)


def test_stats_rebuild_after_mutation_and_hit_the_cache_between():
    table = Table(Schema.of(x="float"))
    for v in (1.0, 2.0, 3.0):
        table.append((v,))
    view = planner_stats(table)
    first = view.column("x")
    assert view.column("x") is first
    table.delete(2)
    assert view.column("x").max_value == 2.0
    table.append((9.0,))
    assert view.column("x").max_value == 9.0


class TestNonFinite:
    """NaN and ±inf count as values but stay off the min/max/histogram axis."""

    def _table(self, values):
        table = Table(Schema([ColumnDef("x", DataType.FLOAT, nullable=True)]))
        for v in values:
            table.append((v,))
        return table

    def test_nan_and_inf_are_counted_but_not_binned(self):
        nan, inf = math.nan, math.inf
        stats = planner_stats(
            self._table([1.0, nan, 3.0, inf, None, nan, -inf, 3.0])
        ).column("x")
        assert (stats.count, stats.nulls) == (8, 1)
        assert (stats.min_value, stats.max_value) == (1.0, 3.0)
        # 1.0, 3.0, NaN (once), +inf, -inf
        assert stats.distinct == 5
        assert stats.histogram.total == 3
        assert sum(stats.histogram.counts) == 3
        assert (stats.histogram.low, stats.histogram.high) == (1.0, 3.0)

    def test_only_non_finite_values(self):
        stats = planner_stats(self._table([math.nan, math.inf])).column("x")
        assert (stats.count, stats.nulls, stats.distinct) == (2, 0, 2)
        assert stats.min_value is None and stats.max_value is None
        assert stats.histogram is None

    def test_span_overflow_gives_up_on_the_histogram_only(self):
        """Finite values whose range is not: no bin width, so no histogram."""
        stats = planner_stats(self._table([-1.7e308, 0.0, 1.7e308])).column("x")
        assert (stats.min_value, stats.max_value, stats.distinct) == (-1.7e308, 1.7e308, 3)
        assert stats.histogram is None

    def test_span_underflow_gives_up_on_the_histogram_only(self):
        """A subnormal range: the bin width rounds to 0, so no histogram."""
        stats = planner_stats(self._table([0.0, 5e-324])).column("x")
        assert (stats.min_value, stats.max_value, stats.distinct) == (0.0, 5e-324, 2)
        assert stats.histogram is None

    def test_vector_backed_column(self):
        table = Table(Schema.of(f="float", v="int"), vector_columns=("f",))
        for i, f in enumerate([0.5, math.nan, 0.25]):
            table.append((f, i))
        stats = planner_stats(table).column("f")
        assert (stats.count, stats.distinct) == (3, 3)
        assert (stats.min_value, stats.max_value) == (0.25, 0.5)
        assert stats.histogram.total == 2
