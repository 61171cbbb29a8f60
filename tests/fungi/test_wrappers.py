"""Tests for NullFungus, PredicateFungus, CompositeFungus."""

import random

import pytest

from repro.errors import DecayError
from repro.fungi import CompositeFungus, LinearDecayFungus, NullFungus, PredicateFungus


@pytest.fixture
def rng():
    return random.Random(2)


class TestNull:
    def test_decays_nothing(self, decaying, rng):
        report = NullFungus().cycle(decaying, rng)
        assert report.decayed == 0
        assert all(decaying.freshness(rid) == 1.0 for rid in decaying.live_rows())


class TestPredicate:
    def test_rate_validated(self):
        with pytest.raises(DecayError):
            PredicateFungus(lambda a: True, rate=0)

    def test_only_matching_rows_decay(self, decaying, rng):
        fungus = PredicateFungus(lambda attrs: attrs["v"] % 2 == 0, rate=0.3)
        fungus.cycle(decaying, rng)
        assert decaying.freshness(2) == pytest.approx(0.7)
        assert decaying.freshness(3) == 1.0

    def test_predicate_sees_attributes_not_t_f(self, decaying, rng):
        seen_keys = set()

        def predicate(attrs):
            seen_keys.update(attrs)
            return False

        PredicateFungus(predicate, rate=0.1).cycle(decaying, rng)
        assert seen_keys == {"v"}

    def test_custom_name(self, decaying, rng):
        fungus = PredicateFungus(lambda a: True, rate=0.1, name="rot-evens")
        assert fungus.cycle(decaying, rng).fungus == "rot-evens"

    def test_skips_exhausted(self, decaying, rng):
        fungus = PredicateFungus(lambda a: True, rate=1.0)
        fungus.cycle(decaying, rng)
        report = fungus.cycle(decaying, rng)
        assert report.decayed == 0


class TestComposite:
    def test_needs_fungi(self):
        with pytest.raises(DecayError):
            CompositeFungus([])

    def test_runs_in_sequence(self, decaying, rng):
        fungus = CompositeFungus(
            [LinearDecayFungus(rate=0.1), LinearDecayFungus(rate=0.2)]
        )
        fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == pytest.approx(0.7)

    def test_merged_report(self, decaying, rng):
        fungus = CompositeFungus(
            [LinearDecayFungus(rate=0.1), LinearDecayFungus(rate=0.2)]
        )
        report = fungus.cycle(decaying, rng)
        assert report.decayed == 20
        assert report.freshness_removed == pytest.approx(3.0)
        assert report.fungus == "linear+linear"

    def test_name_concatenates(self):
        fungus = CompositeFungus([NullFungus(), LinearDecayFungus(rate=0.1)])
        assert fungus.name == "null+linear"

    def test_state_plumbing_forwards(self, decaying):
        from repro.fungi import EGIFungus

        inner = EGIFungus(seeds_per_cycle=1, decay_rate=0.1)
        fungus = CompositeFungus([inner])
        inner._spots.add(3)
        fungus.on_evicted((3,))
        assert 3 not in inner.infected
        inner._spots.add(5)
        fungus.on_compacted({5: 1})
        assert inner.infected == frozenset([1])
        fungus.reset()
        assert inner.infected == frozenset()
