"""Exponential decay: freshness halves every ``half_life`` cycles.

Unlike linear decay this never reaches zero by itself, so an
``evict_below`` floor says when a tuple is *effectively* dead — the
knob that turns an asymptote back into Law 1's "completely
disappeared".
"""

from __future__ import annotations

import random

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.storage.vector import numpy


class ExponentialDecayFungus(Fungus):
    """Half-life decay with an eviction floor."""

    name = "exponential"

    def __init__(self, half_life: float, evict_below: float = 0.01) -> None:
        if half_life <= 0:
            raise DecayError(f"half_life must be positive, got {half_life}")
        if not (0.0 <= evict_below < 1.0):
            raise DecayError(f"evict_below must be in [0, 1), got {evict_below}")
        self.half_life = half_life
        self.evict_below = evict_below
        self.factor = 0.5 ** (1.0 / half_life)

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        rids = table.live_positive_rows()
        if len(rids) == 0:
            return report
        old = table.freshness_of_many(rids)
        # current - (current - current*factor): the exact float dance a
        # per-row scalar pass performs, so the written freshness is
        # bit-identical to it
        new = old * self.factor
        new = numpy.where(new < self.evict_below, 0.0, new)
        targets = old - (old - new)
        self._account(table.set_freshness_many(rids, targets, self.name), report)
        return report
