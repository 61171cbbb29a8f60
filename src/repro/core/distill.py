"""Distillation: cook rotting data into summaries before it vanishes.

Law 2's prose: "once you take something out of R, you should distill
it into useful knowledge, summary, consumed by the user, or stored in
a new container subject to different data fungi". The
:class:`Distiller` turns any set of rows into a
:class:`~repro.sketch.summary.TableSummary`; the
:class:`SummaryStore` is the "new container" those summaries live in —
optionally subject to its own retention (summaries rot too).

Every dying tuple passes through here, so the distiller cooks columns,
not dicts: one liveness check for the whole rowset, one
:meth:`~repro.storage.table.Table.gather` per column, one
:meth:`~repro.sketch.summary.TableSummary.add_columns`.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.events import SummaryCreated
from repro.core.table import DecayingTable
from repro.errors import DistillError
from repro.sketch.summary import SummaryConfig, TableSummary
from repro.storage.rowset import RowSet


class SummaryStore:
    """Keeps the summaries produced for each table.

    ``max_per_table`` bounds the container: when full, the two oldest
    summaries merge — summaries rot into coarser summaries rather than
    growing without bound (the paper's point applies to the summaries
    themselves).
    """

    def __init__(self, max_per_table: int = 0) -> None:
        if max_per_table < 0:
            raise DistillError(f"max_per_table must be >= 0, got {max_per_table}")
        self.max_per_table = max_per_table
        self._summaries: dict[str, list[TableSummary]] = {}
        self.total_rows_summarised = 0
        self.merges = 0

    def add(self, summary: TableSummary) -> None:
        """Store one summary, merging the oldest pair when over budget."""
        bucket = self._summaries.setdefault(summary.table_name, [])
        bucket.append(summary)
        self.total_rows_summarised += summary.row_count
        if self.max_per_table and len(bucket) > self.max_per_table:
            oldest = bucket.pop(0)
            second = bucket.pop(0)
            bucket.insert(0, oldest.merge(second))
            self.merges += 1

    def for_table(self, table_name: str) -> list[TableSummary]:
        """All stored summaries for ``table_name``, oldest first."""
        return list(self._summaries.get(table_name, []))

    def merged(self, table_name: str) -> TableSummary | None:
        """One combined summary of everything that ever left the table."""
        bucket = self._summaries.get(table_name)
        if not bucket:
            return None
        merged = bucket[0]
        for summary in bucket[1:]:
            merged = merged.merge(summary)
        return merged

    def tables(self) -> Iterator[str]:
        """Names of tables that have summaries."""
        return iter(sorted(self._summaries))

    def memory_cells(self) -> int:
        """Total sketch cells across all stored summaries."""
        return sum(
            summary.memory_cells()
            for bucket in self._summaries.values()
            for summary in bucket
        )

    def on_tick(self, tick: int) -> int:
        """Clock hook: a plain store does not decay (see SummaryVault)."""
        return 0

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        """Encode the store for a checkpoint."""
        from repro.sketch.serde import summary_to_dict

        return {
            "kind": "store",
            "max_per_table": self.max_per_table,
            "total_rows_summarised": self.total_rows_summarised,
            "merges": self.merges,
            "summaries": {
                table: [summary_to_dict(s) for s in bucket]
                for table, bucket in self._summaries.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryStore":
        """Rebuild a store from :meth:`to_dict` output."""
        from repro.sketch.serde import summary_from_dict

        store = cls(max_per_table=data["max_per_table"])
        store.total_rows_summarised = data["total_rows_summarised"]
        store.merges = data["merges"]
        store._summaries = {
            table: [summary_from_dict(s) for s in bucket]
            for table, bucket in data["summaries"].items()
        }
        return store


class Distiller:
    """Builds table summaries from rows that are about to leave R."""

    def __init__(self, store: SummaryStore | None = None, config: SummaryConfig | None = None) -> None:
        self.store = store if store is not None else SummaryStore()
        self.config = config if config is not None else SummaryConfig()

    def distill_rowset(
        self, table: DecayingTable, rows: RowSet, reason: str
    ) -> TableSummary:
        """Summarise live rows of ``table`` (they must not be deleted yet)."""
        summary = TableSummary(
            table.name,
            table.storage.schema,
            self.config,
            reason=reason,
            time_column=table.time_column,
        )
        summary.spans = rows.spans()
        storage = table.storage
        storage.check_live_many(rows.rows)
        summary.add_columns(
            {name: storage.gather(name, rows.rows) for name in storage.schema.names}
        )
        self.store.add(summary)
        table.bus.publish(
            SummaryCreated(table.name, table.clock.now, rows=len(rows), reason=reason)
        )
        return summary
