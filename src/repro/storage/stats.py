"""Column statistics: per-column count/nulls/min/max/distinct over the
live rows, computed lazily and cached per table (:func:`planner_stats`).

Numeric columns additionally carry an equi-width
:class:`ColumnHistogram`. One view serves every estimator: the planner
orders filters by it, the ``EXPLAIN CONSUME`` analyzer estimates how
many rows a Law-2 predicate would destroy before anything is consumed,
and ``EXPLAIN ANALYZE`` grades its per-operator estimates against it.

INT, FLOAT and TIMESTAMP columns are read as arrays —
:meth:`Table.mask_data` indexed by :meth:`Table.live_mask` — because a
CONSUME invalidates the statistics it was planned with and the next
statement rebuilds them: a per-value pass over 28k rows cost more than
the statement. The results equal a per-value pass over the same cells
(``tests/storage/test_stats_arrays.py`` holds one as the reference).
NaN and ±inf count toward ``count`` and ``distinct`` (every NaN as one
value) and are left out of ``min_value``/``max_value`` and the
histogram, whose ``total`` is therefore the finite non-nulls. STR, BOOL
and INT at or beyond 2**53 have no exact float64 view and are read as
Python objects.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Any, Optional

from repro.storage.schema import DataType, Schema
from repro.storage.table import Table
from repro.storage.vector import numpy

#: Bin count for equi-width histograms; small tables get exact counts
#: anyway because each distinct value lands in its own bin.
DEFAULT_HISTOGRAM_BINS = 32


@dataclass(frozen=True)
class ColumnHistogram:
    """Equi-width histogram over the non-null numeric values of a column.

    ``counts[i]`` holds values in ``[low + i*width, low + (i+1)*width)``
    with the final bin closed on the right so ``high`` is included.
    """

    low: float
    high: float
    counts: tuple[int, ...]
    total: int

    @property
    def bins(self) -> int:
        return len(self.counts)

    @property
    def width(self) -> float:
        return (self.high - self.low) / self.bins if self.bins else 0.0

    def fraction_le(self, value: float) -> float:
        """Estimated fraction of binned values that are ``<= value``.

        Linear interpolation inside the containing bin — the standard
        uniform-within-bin assumption.
        """
        if self.total == 0 or value < self.low:
            return 0.0
        if value >= self.high:
            return 1.0
        if self.width == 0.0:
            # all mass at a single point == self.low <= value < high
            return 1.0
        index = min(int((value - self.low) / self.width), self.bins - 1)
        below = sum(self.counts[:index])
        bin_low = self.low + index * self.width
        inside = self.counts[index] * (value - bin_low) / self.width
        return (below + inside) / self.total

    def fraction_between(self, low: float, high: float) -> float:
        """Estimated fraction of values in the closed range ``[low, high]``."""
        if high < low:
            return 0.0
        return max(0.0, self.fraction_le(high) - self.fraction_le(low))


def build_histogram(finite: Any) -> Optional[ColumnHistogram]:
    """Equi-width histogram of a float64 array of finite values.

    Bins by ``min(int((v - low) / width), bins - 1)``, evaluated as
    array arithmetic. ``None`` when there is nothing to bin, or when
    ``high - low`` overflows or is so small (subnormal) that the bin
    width rounds to 0, so no finite nonzero bin width exists.
    """
    total = int(finite.size)
    if not total:
        return None
    low, high = float(finite.min()), float(finite.max())
    if low == high:
        return ColumnHistogram(low=low, high=high, counts=(total,), total=total)
    bins = DEFAULT_HISTOGRAM_BINS
    width = (high - low) / bins
    if width == math.inf or width == 0.0:
        return None
    index = numpy.minimum(((finite - low) / width).astype(numpy.intp), bins - 1)
    counts = numpy.bincount(index, minlength=bins)
    return ColumnHistogram(low=low, high=high, counts=tuple(counts.tolist()), total=total)


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column over the live rows."""

    name: str
    dtype: DataType
    count: int
    nulls: int
    distinct: int
    min_value: Any
    max_value: Any
    histogram: Optional[ColumnHistogram] = None


def _column_stats_of(table: Table, name: str, dtype: DataType) -> ColumnStats:
    """One column's :class:`ColumnStats` over the live rows."""
    data = table.mask_data(name)
    if data is None:
        return _object_column_stats(table, name, dtype)
    live = table.live_mask()
    values = data.values[live]
    nulls = 0
    if data.nulls is not None:
        null_mask = data.nulls[live]
        nulls = int(numpy.count_nonzero(null_mask))
        values = values[~null_mask]
    finite = values[numpy.isfinite(values)]
    low = high = None
    if finite.size:
        # INT columns get their ints back (exact below 2**53, which
        # mask_data guarantees); FLOAT/TIMESTAMP cells are floats
        as_python = int if data.is_int else float
        low, high = as_python(finite.min()), as_python(finite.max())
    # distinct = steps in sorted order + 1, and one more for all the
    # NaNs together (under ``!=`` each would have been its own value)
    ordered = numpy.sort(values[~numpy.isnan(values)])
    steps = int(numpy.count_nonzero(ordered[1:] != ordered[:-1]))
    return ColumnStats(
        name=name,
        dtype=dtype,
        count=len(table),
        nulls=nulls,
        distinct=steps + (ordered.size > 0) + (ordered.size < values.size),
        min_value=low,
        max_value=high,
        histogram=build_histogram(finite),
    )


def _object_column_stats(table: Table, name: str, dtype: DataType) -> ColumnStats:
    """The list path: columns with no exact float64 view (STR, BOOL, and
    INT at or beyond 2**53, whose histogram alone goes through floats)."""
    values = table.gather(name, table.live_list())
    non_null = [v for v in values if v is not None]
    return ColumnStats(
        name=name,
        dtype=dtype,
        count=len(values),
        nulls=len(values) - len(non_null),
        distinct=len(set(non_null)),
        min_value=min(non_null) if non_null else None,
        max_value=max(non_null) if non_null else None,
        histogram=(
            build_histogram(numpy.asarray(non_null, dtype=numpy.float64))
            if dtype is DataType.INT
            else None
        ),
    )


class PlannerStats:
    """Lazy, cached per-column statistics for query planning.

    Walking every live cell of every column is far too heavy to run
    per query, and an estimator only needs histograms for the handful
    of columns its predicates mention — so this view computes each
    column on first touch and keeps it while the column's data token
    (generation, allocation high-water mark, data version) and the
    table's liveness version stand still. ``.column(name)`` raises
    :class:`KeyError` for unknown columns.
    """

    def __init__(self, table: Table) -> None:
        self._table = table
        self._cache: dict[str, tuple[tuple, ColumnStats]] = {}

    @property
    def live_rows(self) -> int:
        return len(self._table)

    @property
    def schema(self) -> Schema:
        return self._table.schema

    def column(self, name: str) -> ColumnStats:
        """Stats for one column (computed on first use, then cached)."""
        table = self._table
        if name not in table.schema:
            raise KeyError(name)
        token = (table._version, table.data_token(name))  # noqa: SLF001
        cached = self._cache.get(name)
        if cached is not None and cached[0] == token:
            return cached[1]
        stats = _column_stats_of(table, name, table.schema.column(name).dtype)
        self._cache[name] = (token, stats)
        return stats


_PLANNER_STATS: "weakref.WeakKeyDictionary[Table, PlannerStats]" = (
    weakref.WeakKeyDictionary()
)


def planner_stats(table: Table) -> PlannerStats:
    """The shared :class:`PlannerStats` view of ``table``.

    One instance per table for the table's lifetime, so histogram work
    amortises across queries.
    """
    view = _PLANNER_STATS.get(table)
    if view is None:
        view = PlannerStats(table)
        _PLANNER_STATS[table] = view
    return view
