"""Column statistics: per-column count/nulls/min/max/distinct over the
live rows, computed lazily and cached per table (:func:`planner_stats`).

Numeric columns additionally carry an equi-width
:class:`ColumnHistogram`. One view serves every estimator: the planner
orders filters by it, the ``EXPLAIN CONSUME`` analyzer estimates how
many rows a Law-2 predicate would destroy before anything is consumed,
and ``EXPLAIN ANALYZE`` grades its per-operator estimates against it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.storage.schema import DataType, Schema
from repro.storage.table import Table

#: Bin count for equi-width histograms; small tables get exact counts
#: anyway because each distinct value lands in its own bin.
DEFAULT_HISTOGRAM_BINS = 32

#: Column types the histogram builder understands (timestamps are the
#: logical clock's integers).
_NUMERIC_DTYPES = (DataType.INT, DataType.FLOAT, DataType.TIMESTAMP)


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


def build_histogram(
    values: Sequence[Any], bins: int = DEFAULT_HISTOGRAM_BINS
) -> Optional[ColumnHistogram]:
    """Equi-width histogram of the numeric values in ``values``.

    Returns ``None`` when there is nothing to bin (no non-null numeric
    values, or a non-numeric column).
    """
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
    counts = [0] * bins
    for v in numeric:
        counts[min(int((v - low) / width), bins - 1)] += 1
    return ColumnHistogram(low=low, high=high, counts=tuple(counts), total=len(numeric))


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
        histogram=(build_histogram(values) if dtype in _NUMERIC_DTYPES else None),
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
