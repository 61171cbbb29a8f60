"""Blue Cheese fungus: bounded, accelerating rot spots.

The paper likens EGI's effect to Blue Cheese, "where portions of the
cheese turn into its rotting equivalent over time. It remains edible
for a long time though." This fungus makes the analogy literal and
explores a different corner of the design space than EGI:

* at most ``max_spots`` rot spots exist at a time (a cheese has a
  few veins, not one everywhere);
* each spot is an explicit contiguous region that grows by one tuple
  per cycle on each side;
* rot *accelerates* with spot age: members lose
  ``base_rate × (1 + acceleration × spot_age)`` per cycle, so young
  veins are mild and old veins aggressive — the "remains edible for a
  long time" shape.

Each vein keeps its membership in its own
:class:`~repro.fungi.spotset.SpotSet` (a vein can fragment around
evicted interiors). A cycle walks the same frontier as EGI — one
:meth:`~repro.storage.table.Table.neighbours` call over every vein's
outer edges — and the accelerating decay is one batch mutator call per
vein over its members' positive rows. Evictions are buffered and leave
the veins at the top of the next cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi.spotset import SpotSet
from repro.storage.vector import numpy


@dataclass
class _Spot:
    """One rot vein: its member intervals and its age in cycles."""

    members: SpotSet = field(default_factory=SpotSet)
    age: int = 0


class BlueCheeseFungus(Fungus):
    """A few explicit rot veins that grow and accelerate."""

    name = "blue-cheese"

    def __init__(
        self,
        max_spots: int = 3,
        base_rate: float = 0.05,
        acceleration: float = 0.25,
        age_bias: int = 8,
    ) -> None:
        if max_spots < 1:
            raise DecayError(f"max_spots must be >= 1, got {max_spots}")
        if not (0.0 < base_rate <= 1.0):
            raise DecayError(f"base_rate must be in (0, 1], got {base_rate}")
        if acceleration < 0:
            raise DecayError(f"acceleration must be >= 0, got {acceleration}")
        if age_bias < 1:
            raise DecayError(f"age_bias must be >= 1, got {age_bias}")
        self.max_spots = max_spots
        self.base_rate = base_rate
        self.acceleration = acceleration
        self.age_bias = age_bias
        self._spots: list[_Spot] = []
        #: rids evicted since the veins last dropped them
        self._evicted: list[int] = []

    @property
    def spots(self) -> list[frozenset[int]]:
        """Member sets of the active spots."""
        self._drop_evicted()
        return [frozenset(s.members.members().tolist()) for s in self._spots]

    def reset(self) -> None:
        self._spots.clear()
        self._evicted.clear()

    def on_evicted(self, rids: Sequence[int]) -> None:
        self._evicted.extend(rids)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        self._drop_evicted()
        for spot in self._spots:
            spot.members.remap(remap)

    def _drop_evicted(self) -> None:
        """Apply the buffered evictions, one ``discard_many`` per vein."""
        if self._evicted:
            for spot in self._spots:
                spot.members.discard_many(self._evicted)
            self._evicted.clear()

    def _covered_anywhere(self, rids: list[int]) -> list[bool]:
        covered = numpy.zeros(len(rids), dtype=bool)
        for spot in self._spots:
            covered |= spot.members.covers_many(rids)
        return covered.tolist()

    # ------------------------------------------------------------------

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        storage = table.storage
        self._drop_evicted()

        # spots whose members all rotted away are finished veins (with
        # no tombstones anywhere there is nothing stale to trim); a row
        # deleted behind the fungus's back leaves a dead member
        if storage.tombstones:
            live = storage.live_mask()
            for spot in self._spots:
                members = spot.members.members()
                alive = live[members]
                if not alive.all():
                    spot.members.discard_many(members[~alive])
            self._spots = [s for s in self._spots if s.members or s.age == 0]

        # seed a new vein if below budget (age-biased, like EGI)
        if len(self._spots) < self.max_spots:
            seed = self._select_seed(table, rng)
            if seed is not None:
                self._spots.append(_Spot(members=SpotSet([(seed, seed)])))
                table.mark_infected(seed, self.name)
                report.seeded += 1

        # grow one tuple outward on each side of every vein: the
        # frontier of all veins in one neighbours call, taken in vein
        # order, skipping rows a vein already holds or took this cycle
        active = [spot for spot in self._spots if spot.members]
        if not active:
            return report
        lefts, rights = zip(*(_outer_edges(spot.members) for spot in active))
        before, after = (side.tolist() for side in storage.neighbours(lefts, rights))
        candidates = before + after
        taken = {
            rid for rid, hit in zip(candidates, self._covered_anywhere(candidates)) if hit
        }
        freshness = storage.freshness_array()
        # per vein: (row before it, its first member), (row after, last)
        sides = zip(zip(before, lefts), zip(after, rights))
        for spot, frontier in zip(active, sides):
            for rid, edge in frontier:
                if rid >= 0 and rid not in taken:
                    taken.add(rid)
                    spot.members.add(rid)
                    table.mark_infected(rid, self.name, origin="spread", source=edge)
                    report.spread += 1
            # accelerating decay of all members — one kernel call per vein
            rate = min(1.0, self.base_rate * (1.0 + self.acceleration * spot.age))
            members = spot.members.members()
            rids = members[freshness[members] > 0.0]
            if rids.size:
                self._account(table.decay_many(rids, rate, self.name), report)
            spot.age += 1
        return report

    def _select_seed(self, table: DecayingTable, rng: random.Random) -> int | None:
        sample = table.sample_live(rng, self.age_bias)
        sample = [
            rid for rid, hit in zip(sample, self._covered_anywhere(sample)) if not hit
        ]
        if not sample:
            return None
        return min(sample)


def _outer_edges(members: SpotSet) -> tuple[int, int]:
    """A vein's first and last member."""
    starts, ends = members.bounds()
    return int(starts[0]), int(ends[-1])
