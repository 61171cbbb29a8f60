"""Tests for the EGI fungus — the paper's worked example."""

import random

import pytest

from repro.core.clock import DecayClock
from repro.core.events import TupleInfectedBatch
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi import EGIFungus
from repro.storage import RowSet, Schema


@pytest.fixture
def big_table(clock):
    table = DecayingTable("r", Schema.of(v="int"), clock)
    for i in range(100):
        table.insert({"v": i})
    clock.advance(1)
    return table


@pytest.fixture
def rng():
    return random.Random(7)


class TestValidation:
    def test_parameters(self):
        with pytest.raises(DecayError):
            EGIFungus(seeds_per_cycle=-1)
        with pytest.raises(DecayError):
            EGIFungus(decay_rate=0)
        with pytest.raises(DecayError):
            EGIFungus(age_bias=0)


class TestSeeding:
    def test_seeds_per_cycle(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=3, decay_rate=0.1, spread=False)
        report = fungus.cycle(big_table, rng)
        assert report.seeded == 3
        assert len(fungus.infected) == 3

    def test_zero_seeds_never_infects(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=0, decay_rate=0.1)
        report = fungus.cycle(big_table, rng)
        assert report.seeded == 0
        assert report.decayed == 0

    def test_seeding_publishes_infection_events(self, big_table, rng):
        seen = []
        big_table.bus.subscribe(TupleInfectedBatch, seen.append)
        EGIFungus(seeds_per_cycle=2, decay_rate=0.1, spread=False).cycle(big_table, rng)
        assert [len(e) for e in seen] == [2]
        assert seen[0].fungus == "egi"
        assert seen[0].origins == ("seed", "seed")

    def test_age_bias_prefers_old_tuples(self, clock, rng):
        # 50 old tuples, then 50 young; with tournament selection the
        # seeds should land overwhelmingly in the old half
        table = DecayingTable("r", Schema.of(v="int"), clock)
        for i in range(50):
            table.insert({"v": i})
        clock.advance(100)
        for i in range(50):
            table.insert({"v": i})
        clock.advance(1)
        old_hits = 0
        for trial in range(50):
            fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.01, spread=False, age_bias=8)
            fungus.cycle(table, random.Random(trial))
            (seed,) = fungus.infected
            if seed < 50:
                old_hits += 1
        assert old_hits >= 40

    def test_empty_table(self, clock, rng):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        report = EGIFungus().cycle(table, rng)
        assert report.seeded == 0


class TestSpread:
    def test_neighbours_infected(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.1, spread=True)
        fungus.cycle(big_table, rng)
        infected = sorted(fungus.infected)
        assert len(infected) == 3  # seed + both neighbours
        assert infected[1] - infected[0] == 1
        assert infected[2] - infected[1] == 1

    def test_spot_grows_one_per_side_per_cycle(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.01, spread=True)
        fungus.cycle(big_table, rng)
        first = len(fungus.infected)
        # prevent new seeds by exhausting the budget with 0 further seeds
        fungus.seeds_per_cycle = 0
        fungus.cycle(big_table, rng)
        assert len(fungus.infected) == first + 2

    def test_infection_is_contiguous(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.01, spread=True)
        for _ in range(5):
            fungus.cycle(big_table, rng)
        spans = RowSet(fungus.infected).spans()
        assert len(spans) <= 5  # one spot per seed at most

    def test_no_spread_mode(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.01, spread=False)
        fungus.cycle(big_table, rng)
        fungus.seeds_per_cycle = 0
        fungus.cycle(big_table, rng)
        assert len(fungus.infected) == 1

    def test_equal_rate_for_all_infected(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.2, spread=True)
        fungus.cycle(big_table, rng)
        for rid in fungus.infected:
            assert big_table.freshness(rid) == pytest.approx(0.8)


class TestLifecycle:
    def test_extinction(self, clock, rng):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        for i in range(30):
            table.insert({"v": i})
        clock.advance(1)
        fungus = EGIFungus(seeds_per_cycle=2, decay_rate=0.5)
        for _ in range(100):
            fungus.cycle(table, rng)
            table.evict(table.exhausted, "decay")
            for rid in list(fungus.infected):
                if not table.is_live(rid):
                    fungus.on_evicted((rid,))
            if len(table) == 0:
                break
        assert len(table) == 0

    def test_on_evicted_cleans_state(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.1)
        fungus.cycle(big_table, rng)
        rid = next(iter(fungus.infected))
        fungus.on_evicted((rid,))
        assert rid not in fungus.infected

    def test_on_compacted_remaps(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.1)
        fungus.cycle(big_table, rng)
        old_infected = set(fungus.infected)
        big_table.evict(RowSet([0]), "manual")
        if 0 in old_infected:
            fungus.on_evicted((0,))
            old_infected.discard(0)
        remap = big_table.compact()
        fungus.on_compacted(remap)
        assert fungus.infected == frozenset(remap[rid] for rid in old_infected)

    def test_reset(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=2, decay_rate=0.1)
        fungus.cycle(big_table, rng)
        fungus.reset()
        assert fungus.infected == frozenset()

    def test_stale_infected_rows_dropped_on_cycle(self, big_table, rng):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.1)
        fungus.cycle(big_table, rng)
        rid = next(iter(fungus.infected))
        big_table.evict(RowSet([rid]), "manual")
        fungus.cycle(big_table, rng)  # must not crash on the dead rid
        assert all(big_table.is_live(r) for r in fungus.infected)
