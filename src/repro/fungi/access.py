"""Access-refresh fungus: queried data stays fresh.

The paper hints that owners "taking care" of their data stop it from
rotting, and that data should be inspected "once before removal".
This extension wraps any inner fungus and *boosts* the freshness of
rows that queries touched since the last cycle — so a hot working set
survives while untouched history rots on schedule.

The FungusDB feeds accesses in via :meth:`note_access` after every
query over the table.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError


class AccessRefreshFungus(Fungus):
    """Wrap ``inner``; rows accessed since the last cycle gain freshness."""

    def __init__(self, inner: Fungus, boost: float = 0.3, max_freshness: float = 1.0) -> None:
        if not (0.0 < boost <= 1.0):
            raise DecayError(f"boost must be in (0, 1], got {boost}")
        if not (0.0 < max_freshness <= 1.0):
            raise DecayError(f"max_freshness must be in (0, 1], got {max_freshness}")
        self.inner = inner
        self.boost = boost
        self.max_freshness = max_freshness
        self.name = f"access-refresh({inner.name})"
        self._pending: set[int] = set()
        self.total_refreshed = 0

    def note_access(self, rids: Iterable[int]) -> None:
        """Record that a query read these rows."""
        self._pending.update(rids)

    def reset(self) -> None:
        self._pending.clear()
        self.inner.reset()

    def on_evicted(self, rids: Sequence[int]) -> None:
        self._pending.difference_update(rids)
        self.inner.on_evicted(rids)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        self._pending = {remap[rid] for rid in self._pending if rid in remap}
        self.inner.on_compacted(remap)

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        alive = [rid for rid in sorted(self._pending) if table.is_live(rid)]
        if alive:
            selected: list[int] = []
            boosts: list[float] = []
            for rid, current in zip(alive, table.freshness_of_many(alive)):
                boosted = min(self.max_freshness, float(current) + self.boost)
                if boosted > current:
                    selected.append(rid)
                    boosts.append(boosted)
            if selected:
                table.set_freshness_many(selected, boosts, self.name)
                self.total_refreshed += len(selected)
        self._pending.clear()
        report = self.inner.cycle(table, rng)
        return DecayReport(
            fungus=self.name,
            tick=report.tick,
            seeded=report.seeded,
            spread=report.spread,
            decayed=report.decayed,
            freshness_removed=report.freshness_removed,
            newly_exhausted=report.newly_exhausted,
        )
