"""Decay policies: Law 1, enforced tick by tick.

A :class:`DecayPolicy` binds one table to one fungus and a clock
period ``T`` ("The extent of table R decays with a periodic clock of T
seconds using a data fungus F until it has been completely
disappeared"), plus the operational choices DESIGN.md calls out for
ablation (F6):

* **eviction mode** — EAGER deletes a tuple the cycle its freshness
  hits zero; LAZY leaves exhausted tuples in place and reclaims them
  in batches, trading extent accuracy for amortised deletion.
* **distill-on-evict** — when a distiller is attached, every evicted
  region is cooked into a summary *before* it disappears.
* **compaction cadence** — how often tombstones are physically
  reclaimed (rot spots become real holes).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.core.events import TickCompleted, TupleEvictedBatch
from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.storage.rowset import RowSet


class EvictionMode(enum.Enum):
    """When exhausted tuples (freshness 0) physically leave R."""

    EAGER = "eager"
    LAZY = "lazy"


@dataclass
class PolicyStats:
    """Cumulative counters across a policy's lifetime."""

    cycles_run: int = 0
    tuples_evicted: int = 0
    tuples_distilled: int = 0
    compactions: int = 0
    freshness_removed: float = 0.0
    reports: list[DecayReport] = field(default_factory=list)


class DecayPolicy:
    """Run a fungus against one table on a fixed period."""

    def __init__(
        self,
        table: DecayingTable,
        fungus: Fungus,
        period: int = 1,
        eviction: EvictionMode = EvictionMode.EAGER,
        lazy_batch: int = 64,
        distiller: "Distiller | None" = None,
        compact_every: int = 0,
        seed: int = 0,
        keep_reports: bool = False,
    ) -> None:
        if period < 1:
            raise DecayError(f"period must be >= 1 tick, got {period}")
        if lazy_batch < 1:
            raise DecayError(f"lazy_batch must be >= 1, got {lazy_batch}")
        if compact_every < 0:
            raise DecayError(f"compact_every must be >= 0, got {compact_every}")
        self.table = table
        self.fungus = fungus
        self.period = period
        self.eviction = eviction
        self.lazy_batch = lazy_batch
        self.distiller = distiller
        self.compact_every = compact_every
        self.keep_reports = keep_reports
        self.rng = random.Random(seed)
        self.stats = PolicyStats()
        # every eviction — decay, consume, or manual — must reach the
        # fungus so row-keyed state (infected sets, spots) stays valid
        table.bus.subscribe(TupleEvictedBatch, self._on_evicted_event)

    def _on_evicted_event(self, event: TupleEvictedBatch) -> None:
        if event.table == self.table.name:
            self.fungus.on_evicted(event.rids)

    def run_tick(self, tick: int) -> DecayReport | None:
        """Run one clock tick; the fungus only cycles on period multiples."""
        if tick % self.period != 0:
            self._maybe_collect(tick)
            return None
        report = self.fungus.cycle(self.table, self.rng)
        self.stats.cycles_run += 1
        self.stats.freshness_removed += report.freshness_removed
        if self.keep_reports:
            self.stats.reports.append(report)
        evicted = self._maybe_collect(tick)
        self.table.bus.publish(
            TickCompleted(
                self.table.name,
                self.table.clock.now,
                seeded=report.seeded,
                decayed=report.decayed,
                evicted=evicted,
            )
        )
        return report

    # ------------------------------------------------------------------

    def _maybe_collect(self, tick: int) -> int:
        exhausted = self.table.exhausted
        evicted = 0
        if exhausted:
            if self.eviction is EvictionMode.EAGER or len(exhausted) >= self.lazy_batch:
                evicted = self._evict(exhausted)
        if self.compact_every and tick % self.compact_every == 0:
            if self.table.storage.tombstones:
                remap = self.table.compact()
                self.fungus.on_compacted(remap)
                self.stats.compactions += 1
        return evicted

    def _evict(self, rows: RowSet) -> int:
        if not rows:
            return 0
        if self.distiller is not None:
            self.distiller.distill_rowset(self.table, rows, reason="decay")
            self.stats.tuples_distilled += len(rows)
        self.table.evict(rows, "decay")
        self.stats.tuples_evicted += len(rows)
        return len(rows)


# imported late to avoid a cycle: distill builds on sketch + table only
from repro.core.distill import Distiller  # noqa: E402  (re-export for typing)
