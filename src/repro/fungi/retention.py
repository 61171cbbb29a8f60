"""Retention-time decay — the paper's "old-fashioned decay function".

"An old-fashioned decay function F would be to consider retention
times, where after the data will be discarded." Freshness follows a
linear ramp from 1.0 at insertion to 0.0 at ``max_age``, so the
freshness column stays meaningful (how far into its retention window a
tuple is) while eviction behaves exactly like a TTL.
"""

from __future__ import annotations

import random

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.storage.vector import numpy


class RetentionFungus(Fungus):
    """TTL decay: tuples expire ``max_age`` ticks after insertion."""

    name = "retention"

    def __init__(self, max_age: float) -> None:
        if max_age <= 0:
            raise DecayError(f"max_age must be positive, got {max_age}")
        self.max_age = max_age

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        rids = table.storage.live_list()
        if not rids:
            return report
        ages = table.ages_of(rids)
        current = table.freshness_of_many(rids)
        target = numpy.maximum(0.0, 1.0 - ages / self.max_age)
        mask = target < current
        if not mask.any():
            return report
        selected = numpy.asarray(rids, dtype=numpy.intp)[mask].tolist()
        cur = current[mask]
        targets = cur - (cur - target[mask])
        self._account(table.set_freshness_many(selected, targets, self.name), report)
        return report
