"""Composable table summaries — what the distiller actually produces.

A :class:`TableSummary` is the "new container" of Law 2: when a region
of ``R`` rots away (or a consuming query carries it off), the region is
cooked into one of these — per-column sketches plus provenance (which
row spans, which time range). Summaries merge, so the summary of a
whole table can be assembled from per-rot-spot summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import DistillError
from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch
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

    def estimate_count(self) -> int:
        """Number of cells summarised (exact)."""
        return self.count

    def estimate_distinct(self) -> float:
        """Approximate distinct non-null values."""
        return self.distinct.estimate()

    def estimate_frequency(self, value: Any) -> int:
        """Approximate occurrences of ``value``."""
        return self.frequencies.estimate(value)

    def maybe_contains(self, value: Any) -> bool:
        """Membership with no false negatives."""
        return value in self.members

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
        self.row_count += 1
        for name, summary in self.columns.items():
            summary.add(row.get(name))
        if self.time_column is not None:
            t = row.get(self.time_column)
            if t is not None:
                if self.time_range is None:
                    self.time_range = (t, t)
                else:
                    lo, hi = self.time_range
                    self.time_range = (min(lo, t), max(hi, t))

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
