"""Tests for the Blue Cheese fungus."""

import random

import pytest

from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi import BlueCheeseFungus
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
    return random.Random(3)


class TestValidation:
    def test_parameters(self):
        with pytest.raises(DecayError):
            BlueCheeseFungus(max_spots=0)
        with pytest.raises(DecayError):
            BlueCheeseFungus(base_rate=0)
        with pytest.raises(DecayError):
            BlueCheeseFungus(acceleration=-0.1)
        with pytest.raises(DecayError):
            BlueCheeseFungus(age_bias=0)


class TestSpots:
    def test_one_seed_per_cycle_up_to_budget(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=3, base_rate=0.01)
        for _ in range(10):
            fungus.cycle(big_table, rng)
        assert len(fungus.spots) == 3

    def test_spots_grow_both_sides(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=1, base_rate=0.001)
        fungus.cycle(big_table, rng)
        fungus.cycle(big_table, rng)
        (spot,) = fungus.spots
        assert len(spot) == 5  # seed, then +2 per cycle for 2 cycles

    def test_spots_are_contiguous(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=2, base_rate=0.001)
        for _ in range(6):
            fungus.cycle(big_table, rng)
        for spot in fungus.spots:
            spans = RowSet(spot).spans()
            assert len(spans) == 1

    def test_spots_do_not_overlap(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=3, base_rate=0.001)
        for _ in range(8):
            fungus.cycle(big_table, rng)
        all_members = [rid for spot in fungus.spots for rid in spot]
        assert len(all_members) == len(set(all_members))

    def test_decay_accelerates_with_spot_age(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=1, base_rate=0.1, acceleration=1.0)
        fungus.cycle(big_table, rng)  # rate 0.1 applied to seed
        (spot,) = fungus.spots
        seed = next(iter(spot))
        after_first = big_table.freshness(seed)
        fungus.cycle(big_table, rng)  # rate 0.2 this time
        after_second = big_table.freshness(seed)
        assert after_first - after_second == pytest.approx(0.2)
        assert 1.0 - after_first == pytest.approx(0.1)

    def test_rate_capped_at_one(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=1, base_rate=0.9, acceleration=10.0)
        for _ in range(3):
            fungus.cycle(big_table, rng)  # no crash; rows just hit 0


class TestLifecycle:
    def test_finished_spots_are_replaced(self, clock, rng):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        for i in range(30):
            table.insert({"v": i})
        clock.advance(1)
        fungus = BlueCheeseFungus(max_spots=1, base_rate=0.5)
        for _ in range(100):
            fungus.cycle(table, rng)
            table.evict(table.exhausted, "decay")
            if len(table) == 0:
                break
        assert len(table) == 0

    def test_on_evicted(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=1, base_rate=0.01)
        fungus.cycle(big_table, rng)
        rid = next(iter(fungus.spots[0]))
        fungus.on_evicted((rid,))
        assert rid not in fungus.spots[0]

    def test_on_compacted(self, big_table, rng):
        fungus = BlueCheeseFungus(max_spots=1, base_rate=0.01)
        fungus.cycle(big_table, rng)
        before = set(fungus.spots[0])
        big_table.evict(RowSet([99]), "manual")
        before.discard(99)
        fungus.on_evicted((99,))
        remap = big_table.compact()
        fungus.on_compacted(remap)
        assert set(fungus.spots[0]) == {remap[r] for r in before}

    def test_reset(self, big_table, rng):
        fungus = BlueCheeseFungus()
        fungus.cycle(big_table, rng)
        fungus.reset()
        assert fungus.spots == []
