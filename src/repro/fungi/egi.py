"""EGI — "Evict Grouped Individuals", the paper's worked fungus.

The paper, verbatim: at each clock cycle T,

  * "select an element from R inversely randomly correlated with its
    age and seed it with the fungi F, decreasing its freshness" —
    older tuples are more likely to be seeded;
  * "select all F infected elements and decrease their freshness, also
    affecting the direct neighboring tuples at equal rate" — infection
    spreads bi-directionally along the insertion/time axis, and every
    infected tuple (old and newly infected alike) decays at the same
    rate.

The result is rot *spots*: contiguous insertion ranges whose freshness
melts away, "similar to Blue Cheese". Experiment F2 measures exactly
that spot structure; F5 sweeps this fungus's three rates to the
paper's "until it has been completely disappeared".

Age-biased seeding is implemented by tournament selection: draw
``age_bias`` uniform live candidates and seed the oldest. The seed
probability of a tuple then rises with its age rank (for bias k, the
oldest of n tuples is k times likelier than uniform), which realises
"inversely randomly correlated with its age" without an O(n) weighted
draw per cycle. ``exact_age_weighting=True`` switches to a true
age-proportional draw for tests and small tables.

Membership lives in a :class:`~repro.fungi.spotset.SpotSet`, making
the infection structure explicit: spread is O(#spots) endpoint
extension (only spot edges can grow — interior members' neighbours
are already infected), and the decay step is one batch mutator call
per spot instead of a per-member ``set_freshness`` loop.
"""

from __future__ import annotations

import random
from typing import Mapping

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi.spotset import SpotSet
from repro.obs.profile import PROFILER
from repro.storage.vector import numpy


class EGIFungus(Fungus):
    """The paper's example fungus: age-biased seeds + neighbour spread."""

    name = "egi"

    def __init__(
        self,
        seeds_per_cycle: int = 1,
        decay_rate: float = 0.2,
        spread: bool = True,
        age_bias: int = 8,
        exact_age_weighting: bool = False,
    ) -> None:
        if seeds_per_cycle < 0:
            raise DecayError(f"seeds_per_cycle must be >= 0, got {seeds_per_cycle}")
        if not (0.0 < decay_rate <= 1.0):
            raise DecayError(f"decay_rate must be in (0, 1], got {decay_rate}")
        if age_bias < 1:
            raise DecayError(f"age_bias must be >= 1, got {age_bias}")
        self.seeds_per_cycle = seeds_per_cycle
        self.decay_rate = decay_rate
        self.spread = spread
        self.age_bias = age_bias
        self.exact_age_weighting = exact_age_weighting
        self._spots = SpotSet()

    @property
    def infected(self) -> frozenset[int]:
        """Currently infected row ids (live rows only)."""
        return frozenset(self._spots.members())

    def reset(self) -> None:
        self._spots.clear()

    def on_evicted(self, rid: int) -> None:
        self._spots.remove(rid)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        self._spots.remap(remap)

    # ------------------------------------------------------------------

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        if not PROFILER.enabled:
            return self._cycle(table, rng)
        start = PROFILER.time()
        report = self._cycle(table, rng)
        PROFILER.record(
            "egi.cycle", rows=len(self._spots), seconds=PROFILER.time() - start
        )
        return report

    def _cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        # drop dead members: intersect every spot with the live runs it
        # still covers (splits spots around evicted interiors). With no
        # tombstones anywhere there is nothing stale to drop.
        if table.storage.tombstones:
            self._spots.replace(
                run
                for lo, hi in self._spots.spans()
                for run in table.storage.live_runs(lo, hi)
            )

        # 1. seed: age-biased selection of new infection sites
        for _ in range(self.seeds_per_cycle):
            seed = self._select_seed(table, rng)
            if seed is None:
                break
            if self._spots.add(seed):
                table.mark_infected(seed, self.name)
                report.seeded += 1

        if not self._spots:
            return report

        # 2. spread: "bi-directional growth" — only the spot edges have
        #    uninfected live neighbours, so extending each span's
        #    endpoints infects exactly the scalar frontier. The edge row
        #    is recorded as the infection source — the provenance edge
        #    forensics lineage chains on.
        if self.spread:
            grown = 0
            for lo, hi in self._spots.spans():
                prev_rid = table.storage.prev_live(lo)
                if prev_rid is not None and not self._spots.covers(prev_rid):
                    self._spots.add(prev_rid)
                    table.mark_infected(prev_rid, self.name, origin="spread", source=lo)
                    grown += 1
                next_rid = table.storage.next_live(hi)
                if next_rid is not None and not self._spots.covers(next_rid):
                    self._spots.add(next_rid)
                    table.mark_infected(next_rid, self.name, origin="spread", source=hi)
                    grown += 1
            report.spread += grown
            if PROFILER.enabled:
                PROFILER.record("egi.spread", rows=grown)

        # 3. decay: every infected element loses freshness at equal
        #    rate — one batch kernel call across all spots; spans are
        #    disjoint and ascending, so the concatenation is the same
        #    ascending rid order the scalar member loop used
        parts = [table.positive_rows_in(lo, hi) for lo, hi in self._spots.spans()]
        if len(parts) > 1:
            rids = numpy.concatenate(
                [numpy.asarray(part, dtype=numpy.intp) for part in parts]
            )
        else:
            rids = parts[0]
        if len(rids):
            self._account(table.decay_many(rids, self.decay_rate, self.name), report)
        return report

    def _select_seed(self, table: DecayingTable, rng: random.Random) -> int | None:
        if self.exact_age_weighting:
            candidates = [
                rid for rid in table.live_rows() if not self._spots.covers(rid)
            ]
            if not candidates:
                return None
            ages = [table.age(rid) + 1.0 for rid in candidates]
            return rng.choices(candidates, weights=ages, k=1)[0]
        sample = table.sample_live(rng, self.age_bias)
        sample = [rid for rid in sample if not self._spots.covers(rid)]
        if not sample:
            return None
        # the lowest rid is the oldest (insertion order = time order)
        return min(sample)
