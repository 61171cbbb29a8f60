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
draw per cycle. Exactly: on a table of ``n`` uninfected live rows, the
``i``-th oldest (counting from 0) is seeded with probability
``C(n-1-i, k-1) / C(n, k)``.

Membership lives in a :class:`~repro.fungi.spotset.SpotSet`, and one
cycle is a fixed number of array operations over it, whatever the
table size: the spread frontier is one
:meth:`~repro.storage.table.Table.neighbours` call over the span
edges (a dead neighbour jumps across its tombstone run by one
``searchsorted``), the infections of the cycle go out as one
:class:`~repro.core.events.TupleInfectedBatch`, and the decay step is
one batch mutator call over the members' positive rows. Evictions are
buffered and leave the spots in one ``discard_many``.
"""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi.spotset import SpotSet
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
        self._spots = SpotSet()
        #: rids evicted since the spots last dropped them
        self._evicted: list[int] = []

    @property
    def infected(self) -> frozenset[int]:
        """Currently infected row ids (live rows only)."""
        self._drop_evicted()
        return frozenset(self._spots.members().tolist())

    def reset(self) -> None:
        self._spots.clear()
        self._evicted.clear()

    def on_evicted(self, rids: Sequence[int]) -> None:
        self._evicted.extend(rids)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        self._drop_evicted()
        self._spots.remap(remap)

    def _drop_evicted(self) -> None:
        """Apply the buffered evictions in one ``discard_many``."""
        if self._evicted:
            self._spots.discard_many(self._evicted)
            self._evicted.clear()

    # ------------------------------------------------------------------

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        storage = table.storage
        spots = self._spots
        self._drop_evicted()
        # a row deleted behind the fungus's back leaves a dead member:
        # with every member live (the rule) this is one gather
        if spots and storage.tombstones:
            members = spots.members()
            live = storage.live_mask()[members]
            if not live.all():
                spots.discard_many(members[~live])

        # 1. seed: age-biased selection of new infection sites
        seeds: list[int] = []
        for _ in range(self.seeds_per_cycle):
            seed = self._select_seed(table, rng, seeds)
            if seed is None:
                break
            seeds.append(seed)
        report.seeded = len(seeds)
        starts, ends = spots.bounds()
        if seeds:
            # the spots after seeding, as sorted runs: a seed is a run
            # of its own, even beside a span it will merge with
            seed_arr = numpy.asarray(seeds, dtype=numpy.int64)
            starts = numpy.concatenate((starts, seed_arr))
            order = starts.argsort(kind="stable")
            starts = starts[order]
            ends = numpy.concatenate((ends, seed_arr))[order]
        if not starts.size:
            return report

        # 2. spread: "bi-directional growth" — only the run edges have
        #    uninfected live neighbours. Candidates go in run order, the
        #    row before each run ahead of the row after it, each with
        #    the edge row it grows from as its source (the provenance
        #    edge forensics lineage chains on). Every member is live, so
        #    a candidate is covered exactly when it is the edge row of
        #    the run across from it; and a row that is both the next of
        #    one run and the prev of the following one is infected once,
        #    from the first.
        infected = seeds
        sources: list[int | None] = [None] * len(seeds)
        if self.spread:
            edges = numpy.empty(2 * starts.size, dtype=numpy.int64)
            edges[0::2] = starts
            edges[1::2] = ends
            candidates = numpy.empty_like(edges)
            candidates[0::2], candidates[1::2] = storage.neighbours(starts, ends)
            across = numpy.empty_like(edges)
            # no run before the first or after the last: -1 matches the
            # missing neighbour there
            across[0] = across[-1] = -1
            across[2::2] = ends[:-1]
            across[1:-1:2] = starts[1:]
            keep = candidates != across
            keep[2::2] &= candidates[2::2] != candidates[1:-1:2]
            frontier = candidates[keep].tolist()
            report.spread = len(frontier)
            infected = seeds + frontier
            sources += edges[keep].tolist()
        grown = numpy.asarray(infected, dtype=numpy.int64)
        spots.add_runs(grown, grown)
        table.mark_infected_many(
            infected,
            self.name,
            ["seed"] * len(seeds) + ["spread"] * report.spread,
            sources,
        )

        # 3. decay: every infected element loses freshness at equal
        #    rate — one batch kernel call over the members (all live,
        #    ascending) whose freshness is still positive
        members = spots.members()
        rids = members[storage.freshness_array()[members] > 0.0]
        if rids.size:
            self._account(table.decay_many(rids, self.decay_rate, self.name), report)
        return report

    def _select_seed(
        self, table: DecayingTable, rng: random.Random, taken: Sequence[int] = ()
    ) -> int | None:
        # the sample is ascending and the lowest rid is the oldest
        # (insertion order = time order): the seed is the first one
        # not yet infected
        for rid in table.sample_live(rng, self.age_bias):
            if rid not in taken and not self._spots.covers(rid):
                return rid
        return None
