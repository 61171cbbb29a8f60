"""Composable table summaries — what the distiller actually produces.

A :class:`TableSummary` is the "new container" of Law 2: when a region
of ``R`` rots away (or a consuming query carries it off), the region is
cooked into one of these — per-column sketches plus provenance (which
row spans, which time range). Summaries merge, so the summary of a
whole table can be assembled from per-rot-spot summaries.

Rows arrive in columns: :meth:`TableSummary.add_columns` takes one value
list per column and :meth:`ColumnSummary.add_all` hashes each cell once
for the three hash-based sketches. ``add_row`` / ``add`` are the
one-row / one-value case of the same objects and leave the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import DistillError, SchemaError
from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch, stable_hashes
from repro.sketch.histogram import StreamingHistogram
from repro.sketch.hyperloglog import HyperLogLog
from repro.sketch.moments import RunningMoments
from repro.sketch.reservoir import ReservoirSample
from repro.storage.schema import DataType, Schema


@dataclass(frozen=True)
class SummaryConfig:
    """Sizing knobs for the per-column sketches."""

    histogram_bins: int = 64
    countmin_width: int = 256
    countmin_depth: int = 4
    hll_precision: int = 12
    bloom_bits: int = 8192
    bloom_hashes: int = 5
    reservoir_size: int = 50
    seed: int = 20150104  # CIDR 2015 opening day


#: batches shorter than this take the per-value route in
#: :meth:`ColumnSummary.add_all`: both routes leave identical bits, and
#: below 20-25 values the fixed numpy dispatch cost exceeds the scalar
#: work (same value and reason as ``core/table.py``'s ``_SMALL_BATCH``)
_SMALL_BATCH = 32


class ColumnSummary:
    """Sketch bundle for one column.

    Numeric columns get moments + a streaming histogram; all columns
    get HyperLogLog (distinct), count-min (frequency) and a Bloom
    filter (membership); a small reservoir keeps raw examples.
    """

    def __init__(self, name: str, dtype: DataType, config: SummaryConfig) -> None:
        self.name = name
        self.dtype = dtype
        self.config = config
        self.nulls = 0
        self.count = 0
        self.is_numeric = dtype in (DataType.INT, DataType.FLOAT, DataType.TIMESTAMP)
        self.moments = RunningMoments() if self.is_numeric else None
        self.histogram = StreamingHistogram(config.histogram_bins) if self.is_numeric else None
        self.distinct = HyperLogLog(config.hll_precision)
        self.frequencies = CountMinSketch(config.countmin_width, config.countmin_depth, config.seed)
        self.members = BloomFilter(config.bloom_bits, config.bloom_hashes)
        self.examples = ReservoirSample(config.reservoir_size, seed=config.seed)

    def add(self, value: Any) -> None:
        """Fold one cell value into the summary."""
        self.count += 1
        if value is None:
            self.nulls += 1
            return
        if self.moments is not None:
            self.moments.add(value)
            self.histogram.add(value)
        self.distinct.add(value)
        self.frequencies.add(value)
        self.members.add(value)
        self.examples.add(value)

    def add_all(self, values: Sequence[Any]) -> None:
        """Fold a batch of cell values into the summary.

        Leaves exactly the state a loop of :meth:`add` leaves. NULLs are
        stripped once and each value is hashed once: HyperLogLog,
        count-min and Bloom share one :func:`stable_hashes` array.
        Moments, histogram and reservoir are order-dependent and consume
        the batch sequentially.
        """
        if len(values) < _SMALL_BATCH:
            for value in values:
                self.add(value)
            return
        present = [value for value in values if value is not None]
        self.count += len(values)
        self.nulls += len(values) - len(present)
        if not present:
            return
        if self.moments is not None:
            self.moments.add_all(present)
            self.histogram.add_all(present)
        hashes = stable_hashes(present)
        self.distinct.add_hashes(hashes)
        self.frequencies.add_hashes(hashes)
        self.members.add_hashes(hashes)
        self.examples.add_all(present)

    def merge(self, other: "ColumnSummary") -> "ColumnSummary":
        """Combine summaries of two disjoint regions of the same column."""
        if self.name != other.name or self.dtype is not other.dtype:
            raise DistillError(
                f"cannot merge column summaries {self.name}:{self.dtype} "
                f"and {other.name}:{other.dtype}"
            )
        merged = ColumnSummary(self.name, self.dtype, self.config)
        merged.count = self.count + other.count
        merged.nulls = self.nulls + other.nulls
        if merged.moments is not None:
            merged.moments = self.moments.merge(other.moments)
            merged.histogram = self.histogram.merge(other.histogram)
        merged.distinct = self.distinct.merge(other.distinct)
        merged.frequencies = self.frequencies.merge(other.frequencies)
        merged.members = self.members.merge(other.members)
        merged.examples = self.examples.merge(other.examples)
        return merged

    # -- queries over the summary ---------------------------------------

    def estimate_distinct(self) -> float:
        """Approximate distinct non-null values."""
        return self.distinct.estimate()

    def _stored_form(self, value: Any) -> Any:
        """``value`` as the write path stored it, or None if it cannot be held.

        Sketches hash the ``repr``, so a probe must be spelled the way
        :meth:`Schema.coerce_row` spelled the cell: ``22`` on a FLOAT
        column is looked up as ``22.0``, ``22.0`` on an INT column as
        ``22``.
        """
        if self.dtype is DataType.INT and isinstance(value, float) and value.is_integer():
            value = int(value)
        try:
            return self.dtype.coerce(value)
        except SchemaError:
            return None

    def estimate_frequency(self, value: Any) -> int:
        """Approximate occurrences of ``value`` (0 for one the column cannot hold)."""
        stored = self._stored_form(value)
        return 0 if stored is None else self.frequencies.estimate(stored)

    def maybe_contains(self, value: Any) -> bool:
        """Membership with no false negatives."""
        stored = self._stored_form(value)
        return stored is not None and stored in self.members

    def estimate_mean(self) -> float | None:
        """Mean of numeric columns (exact over summarised values)."""
        if self.moments is None or self.moments.count == 0:
            return None
        return self.moments.mean

    def estimate_quantile(self, q: float) -> float | None:
        """Approximate quantile of numeric columns."""
        if self.histogram is None or self.histogram.total == 0:
            return None
        return self.histogram.quantile(q)

    def memory_cells(self) -> int:
        """Total sketch cells held (space metric for experiment T2)."""
        cells = self.distinct.memory_cells() + self.frequencies.memory_cells()
        cells += self.members.memory_cells() // 8  # bits -> bytes-ish cells
        cells += len(self.examples)
        if self.histogram is not None:
            cells += self.histogram.memory_cells() * 2
        if self.moments is not None:
            cells += 5
        return cells


@dataclass
class TableSummary:
    """Summary of a set of rows that left a table.

    ``spans`` records which contiguous row-id ranges were summarised —
    the provenance of blue-cheese holes. ``time_range`` is the min/max
    of the designated time column, when the schema has one.
    """

    table_name: str
    schema: Schema
    config: SummaryConfig = field(default_factory=SummaryConfig)
    reason: str = "distill"
    row_count: int = 0
    spans: list[tuple[int, int]] = field(default_factory=list)
    time_column: str | None = None
    time_range: tuple[float, float] | None = None
    columns: dict[str, ColumnSummary] = field(init=False)

    def __post_init__(self) -> None:
        self.columns = {
            col.name: ColumnSummary(col.name, col.dtype, self.config) for col in self.schema
        }

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Fold one row (mapping of column -> value) into the summary."""
        self.add_columns({name: (row.get(name),) for name in self.columns})

    def add_columns(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Fold a batch of rows, given as equal-length value lists by column.

        The batch entry point distillation uses: one
        :meth:`ColumnSummary.add_all` per column, ``row_count`` and
        ``time_range`` updated once. A column missing from ``columns``
        counts as all-NULL, as a key missing from an ``add_row`` mapping
        does.
        """
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise DistillError(f"columns of unequal length: {sorted(lengths)}")
        rows = lengths.pop() if lengths else 0
        self.row_count += rows
        for name, summary in self.columns.items():
            summary.add_all(columns.get(name, (None,) * rows))
        if self.time_column is not None:
            times = [t for t in columns.get(self.time_column, ()) if t is not None]
            if times:
                lo, hi = self.time_range or (times[0], times[0])
                self.time_range = (min(lo, *times), max(hi, *times))

    def column(self, name: str) -> ColumnSummary:
        """Summary of one column."""
        try:
            return self.columns[name]
        except KeyError:
            raise DistillError(f"summary has no column {name!r}") from None

    def merge(self, other: "TableSummary") -> "TableSummary":
        """Combine summaries of two disjoint row sets of the same table."""
        if self.table_name != other.table_name or self.schema != other.schema:
            raise DistillError("can only merge summaries of the same table/schema")
        def leaves(summary: "TableSummary") -> int:
            if summary.reason.startswith("merged["):
                return int(summary.reason[7:].split()[0])
            return 1

        merged = TableSummary(
            self.table_name,
            self.schema,
            self.config,
            reason=f"merged[{leaves(self) + leaves(other)} summaries]",
            time_column=self.time_column,
        )
        merged.row_count = self.row_count + other.row_count
        merged.spans = sorted(self.spans + other.spans)
        ranges = [r for r in (self.time_range, other.time_range) if r is not None]
        if ranges:
            merged.time_range = (min(r[0] for r in ranges), max(r[1] for r in ranges))
        merged.columns = {
            name: self.columns[name].merge(other.columns[name]) for name in self.columns
        }
        return merged

    def memory_cells(self) -> int:
        """Total sketch cells across columns."""
        return sum(col.memory_cells() for col in self.columns.values())

    def describe(self) -> str:
        """One-line human-readable description."""
        parts = [
            f"summary of {self.row_count} rows from {self.table_name!r} ({self.reason})"
        ]
        if self.spans:
            largest = max(stop - start for start, stop in self.spans)
            parts.append(f"{len(self.spans)} spans (largest {largest})")
        if self.time_range is not None:
            parts.append(f"time in [{self.time_range[0]:.4g}, {self.time_range[1]:.4g}]")
        return "; ".join(parts)
