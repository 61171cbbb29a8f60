"""Sigmoid decay: data stays fresh, then collapses.

The paper invites "many more data fungi … based on their rate of
decay". The logistic fungus fills the gap between the retention cliff
(fresh until the instant of death) and linear decay (dying from the
moment of birth): freshness follows

    f(age) = 1 / (1 + exp(steepness × (age − midlife)))

so a tuple keeps most of its value through youth, fades quickly
around ``midlife``, and lingers near zero until ``evict_below``
cuts it off. This is how citation counts, news relevance and cache
hit-rates actually age — the most realistic organism in the library.
"""

from __future__ import annotations

import math
import random

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError


class SigmoidDecayFungus(Fungus):
    """Logistic freshness-vs-age decay with an eviction floor."""

    name = "sigmoid"

    def __init__(
        self, midlife: float, steepness: float = 0.5, evict_below: float = 0.05
    ) -> None:
        if midlife <= 0:
            raise DecayError(f"midlife must be positive, got {midlife}")
        if steepness <= 0:
            raise DecayError(f"steepness must be positive, got {steepness}")
        if not (0.0 <= evict_below < 1.0):
            raise DecayError(f"evict_below must be in [0, 1), got {evict_below}")
        self.midlife = midlife
        self.steepness = steepness
        self.evict_below = evict_below

    def target_freshness(self, age: float) -> float:
        """The logistic curve value for a given age."""
        exponent = self.steepness * (age - self.midlife)
        # clamp to avoid overflow for very old tuples
        if exponent > 60:
            return 0.0
        if exponent < -60:
            return 1.0
        value = 1.0 / (1.0 + math.exp(exponent))
        return 0.0 if value < self.evict_below else value

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        rids = table.live_positive_rows()
        if len(rids) == 0:
            return report
        # the logistic targets stay per-row python: math.exp and
        # numpy.exp differ in the last ulp, and the differential oracle
        # demands freshness bit-identical to its per-row math.exp
        ages = table.ages_of(rids).tolist()
        current = table.freshness_of_many(rids).tolist()
        selected: list[int] = []
        targets: list[float] = []
        for rid, age, cur in zip(rids, ages, current):
            target = self.target_freshness(age)
            if target < cur:
                selected.append(rid)
                targets.append(cur - (cur - target))
        if selected:
            self._account(
                table.set_freshness_many(selected, targets, self.name), report
            )
        return report
