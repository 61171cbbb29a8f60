"""Tests for repro.core.fungus (the protocol and report plumbing)."""

import random

import pytest

from repro.core.fungus import DecayReport, Fungus


class TestDecayReport:
    def test_merge_sums_counters(self):
        a = DecayReport("a", 1.0, seeded=1, spread=2, decayed=3, freshness_removed=0.5)
        b = DecayReport("b", 2.0, seeded=4, spread=5, decayed=6, freshness_removed=1.5,
                        newly_exhausted=2)
        merged = a.merge(b)
        assert merged.fungus == "a+b"
        assert merged.tick == 2.0
        assert merged.seeded == 5
        assert merged.spread == 7
        assert merged.decayed == 9
        assert merged.freshness_removed == 2.0
        assert merged.newly_exhausted == 2


class TestFungusBase:
    def test_cycle_is_abstract(self, decaying):
        with pytest.raises(NotImplementedError):
            Fungus().cycle(decaying, random.Random(0))

    def test_default_hooks_are_noops(self):
        fungus = Fungus()
        fungus.on_evicted((1,))
        fungus.on_compacted({1: 0})
        fungus.reset()

    def test_decay_helper_accounting(self, decaying):
        fungus = Fungus()
        report = DecayReport("x", 0.0)
        fungus._decay(decaying, 0, 0.4, report)
        assert report.decayed == 1
        assert report.freshness_removed == pytest.approx(0.4)
        assert report.newly_exhausted == 0
        fungus._decay(decaying, 0, 1.0, report)
        assert report.newly_exhausted == 1
        assert report.freshness_removed == pytest.approx(1.0)  # clamped at 0

    def test_decay_helper_respects_pinning(self, decaying):
        fungus = Fungus()
        report = DecayReport("x", 0.0)
        decaying.pin(0)
        fungus._decay(decaying, 0, 0.4, report)
        assert decaying.freshness(0) == 1.0
        assert report.freshness_removed == 0.0
