"""The summary vault: a container whose *summaries* rot.

Law 2 in full: consumed data may be "stored in a new container subject
to different data fungi". A :class:`SummaryVault` is that container —
a :class:`~repro.core.distill.SummaryStore` whose entries carry their
own vault-freshness and decay on the same clock as the tables:

* every stored summary enters at freshness 1.0 and halves every
  ``half_life`` ticks;
* once a summary's freshness falls below ``compost_below`` it is
  folded into the per-table *compost* — one coarse merged summary of
  everything old — and ceases to exist individually.

Knowledge therefore degrades in resolution (you lose per-rot-spot
provenance) but never disappears: the compost keeps counts, moments,
sketches of everything that ever rotted. Conservation (live +
summarised == ever inserted) still holds, which the F6/F4 experiments
and the property tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.distill import SummaryStore
from repro.errors import DistillError
from repro.sketch.summary import TableSummary


@dataclass
class _VaultEntry:
    """One stored summary plus its vault-freshness."""

    summary: TableSummary
    freshness: float = 1.0


class SummaryVault(SummaryStore):
    """A SummaryStore whose entries decay into per-table compost."""

    def __init__(self, half_life: float = 50.0, compost_below: float = 0.25) -> None:
        super().__init__(max_per_table=0)
        if half_life <= 0:
            raise DistillError(f"half_life must be positive, got {half_life}")
        if not (0.0 <= compost_below < 1.0):
            raise DistillError(f"compost_below must be in [0, 1), got {compost_below}")
        self.half_life = half_life
        self.compost_below = compost_below
        self._decay_factor = 0.5 ** (1.0 / half_life)
        self._entries: dict[str, list[_VaultEntry]] = {}
        self._compost: dict[str, TableSummary] = {}
        self.composted_summaries = 0

    # -- SummaryStore surface -------------------------------------------

    def add(self, summary: TableSummary) -> None:
        """Store one summary at full vault-freshness."""
        self._entries.setdefault(summary.table_name, []).append(_VaultEntry(summary))
        self.total_rows_summarised += summary.row_count

    def for_table(self, table_name: str) -> list[TableSummary]:
        """Compost first (oldest knowledge), then fresh entries in order."""
        out: list[TableSummary] = []
        compost = self._compost.get(table_name)
        if compost is not None:
            out.append(compost)
        out.extend(e.summary for e in self._entries.get(table_name, []))
        return out

    def merged(self, table_name: str) -> TableSummary | None:
        """Everything ever summarised for the table, compost included."""
        summaries = self.for_table(table_name)
        if not summaries:
            return None
        merged = summaries[0]
        for summary in summaries[1:]:
            merged = merged.merge(summary)
        return merged

    def tables(self):
        """Names of tables with any vault content."""
        names = set(self._entries) | set(self._compost)
        return iter(sorted(name for name in names if self.for_table(name)))

    def memory_cells(self) -> int:
        """Sketch cells across fresh entries and compost."""
        cells = sum(
            entry.summary.memory_cells()
            for bucket in self._entries.values()
            for entry in bucket
        )
        cells += sum(compost.memory_cells() for compost in self._compost.values())
        return cells

    # -- the vault's own Law 1 -------------------------------------------

    def on_tick(self, tick: int) -> int:
        """One decay cycle over the vault; returns summaries composted."""
        composted = 0
        for table_name, bucket in self._entries.items():
            survivors: list[_VaultEntry] = []
            for entry in bucket:
                entry.freshness *= self._decay_factor
                if entry.freshness < self.compost_below:
                    self._fold_into_compost(table_name, entry.summary)
                    composted += 1
                else:
                    survivors.append(entry)
            bucket[:] = survivors
        self.composted_summaries += composted
        return composted

    def _fold_into_compost(self, table_name: str, summary: TableSummary) -> None:
        existing = self._compost.get(table_name)
        if existing is None:
            self._compost[table_name] = summary
        else:
            self._compost[table_name] = existing.merge(summary)

    # -- introspection ----------------------------------------------------

    def fresh_count(self, table_name: str) -> int:
        """Summaries still individually alive for a table."""
        return len(self._entries.get(table_name, []))

    def compost(self, table_name: str) -> TableSummary | None:
        """The coarse merged summary of everything composted."""
        return self._compost.get(table_name)

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        """Encode the vault (entries with their freshness, plus compost)."""
        from repro.sketch.serde import summary_to_dict

        return {
            "kind": "vault",
            "half_life": self.half_life,
            "compost_below": self.compost_below,
            "total_rows_summarised": self.total_rows_summarised,
            "composted_summaries": self.composted_summaries,
            "entries": {
                table: [
                    {"freshness": e.freshness, "summary": summary_to_dict(e.summary)}
                    for e in bucket
                ]
                for table, bucket in self._entries.items()
            },
            "compost": {
                table: summary_to_dict(summary)
                for table, summary in self._compost.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SummaryVault":
        """Rebuild a vault from :meth:`to_dict` output."""
        from repro.sketch.serde import summary_from_dict

        vault = cls(half_life=data["half_life"], compost_below=data["compost_below"])
        vault.total_rows_summarised = data["total_rows_summarised"]
        vault.composted_summaries = data["composted_summaries"]
        vault._entries = {
            table: [
                _VaultEntry(summary_from_dict(e["summary"]), e["freshness"])
                for e in bucket
            ]
            for table, bucket in data["entries"].items()
        }
        vault._compost = {
            table: summary_from_dict(summary)
            for table, summary in data["compost"].items()
        }
        return vault
