"""The fungus protocol.

The paper: "many more data fungi can be considered, based on their
rate of decay, what to decay, how to decay". A :class:`Fungus` is one
such organism: once per decay-clock cycle the policy calls
:meth:`Fungus.cycle` with the table and a seeded RNG, and the fungus
lowers freshness however it likes. It never evicts — rows whose
freshness hits zero join the table's exhausted set and the policy
decides their fate.

Fungi with internal state keyed by row id (EGI's infected set, Blue
Cheese's spots) implement :meth:`on_evicted` / :meth:`on_compacted`
to stay consistent with the row space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from repro.core.table import BatchOutcome, DecayingTable


@dataclass
class DecayReport:
    """What one fungus cycle did to one table."""

    fungus: str
    tick: float
    seeded: int = 0
    spread: int = 0
    decayed: int = 0
    freshness_removed: float = 0.0
    newly_exhausted: int = 0

    def merge(self, other: "DecayReport") -> "DecayReport":
        """Sum two reports (used by CompositeFungus)."""
        return DecayReport(
            fungus=f"{self.fungus}+{other.fungus}",
            tick=max(self.tick, other.tick),
            seeded=self.seeded + other.seeded,
            spread=self.spread + other.spread,
            decayed=self.decayed + other.decayed,
            freshness_removed=self.freshness_removed + other.freshness_removed,
            newly_exhausted=self.newly_exhausted + other.newly_exhausted,
        )


class Fungus:
    """Base class for data fungi. Subclasses override :meth:`cycle`."""

    #: short name used in events and reports
    name: str = "fungus"

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        """Run one decay cycle against ``table``; return what happened."""
        raise NotImplementedError

    def on_evicted(self, rid: int) -> None:
        """Row ``rid`` left the table; drop any internal state for it."""

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        """The table compacted; translate internal row ids via ``remap``."""

    def reset(self) -> None:
        """Forget all internal state (fresh table, new experiment run)."""

    # -- helper for subclasses -------------------------------------------

    def _decay(
        self, table: DecayingTable, rid: int, amount: float, report: DecayReport
    ) -> float:
        """Apply ``amount`` of decay to ``rid`` and account for it.

        The scalar sibling of the batch mutators — kept for one-off
        mutations and as the seam the fault-injection mutants patch.
        """
        old = table.freshness(rid)
        new = table.decay(rid, amount, self.name)
        report.decayed += 1
        report.freshness_removed += old - new
        if old > 0.0 and new <= 0.0:
            report.newly_exhausted += 1
        return new

    def _account(self, outcome: BatchOutcome, report: DecayReport) -> None:
        """Fold one batch mutator pass into the cycle report."""
        report.decayed += outcome.processed
        report.freshness_removed += outcome.removed
        report.newly_exhausted += outcome.newly_exhausted


