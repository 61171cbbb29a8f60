"""Tests for the access-refresh fungus."""

import random

import pytest

from repro.errors import DecayError
from repro.fungi import AccessRefreshFungus, LinearDecayFungus
from repro.storage import RowSet


@pytest.fixture
def rng():
    return random.Random(5)


class TestValidation:
    def test_boost_range(self):
        inner = LinearDecayFungus(rate=0.1)
        with pytest.raises(DecayError):
            AccessRefreshFungus(inner, boost=0)
        with pytest.raises(DecayError):
            AccessRefreshFungus(inner, boost=1.5)
        with pytest.raises(DecayError):
            AccessRefreshFungus(inner, max_freshness=0)

    def test_name_mentions_inner(self):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
        assert "linear" in fungus.name


class TestRefresh:
    def test_accessed_rows_gain_freshness(self, decaying, rng):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1), boost=0.5)
        decaying.set_freshness(0, 0.3)
        decaying.set_freshness(1, 0.3)
        fungus.note_access(RowSet([0]))
        fungus.cycle(decaying, rng)
        # row 0: 0.3 + 0.5 boost - 0.1 decay; row 1: 0.3 - 0.1
        assert decaying.freshness(0) == pytest.approx(0.7)
        assert decaying.freshness(1) == pytest.approx(0.2)
        assert fungus.total_refreshed == 1

    def test_boost_capped_at_max(self, decaying, rng):
        fungus = AccessRefreshFungus(
            LinearDecayFungus(rate=0.01), boost=0.9, max_freshness=0.8
        )
        decaying.set_freshness(0, 0.5)
        fungus.note_access(RowSet([0]))
        fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == pytest.approx(0.79)

    def test_pending_cleared_each_cycle(self, decaying, rng):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1), boost=0.5)
        decaying.set_freshness(0, 0.2)
        fungus.note_access(RowSet([0]))
        fungus.cycle(decaying, rng)
        fungus.cycle(decaying, rng)  # no new access: no second boost
        assert decaying.freshness(0) == pytest.approx(0.2 + 0.5 - 0.2)

    def test_dead_pending_rows_skipped(self, decaying, rng):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1), boost=0.5)
        fungus.note_access(RowSet([0]))
        decaying.evict(RowSet([0]), "manual")
        fungus.cycle(decaying, rng)  # must not crash

    def test_report_carries_wrapper_name(self, decaying, rng):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
        report = fungus.cycle(decaying, rng)
        assert report.fungus == fungus.name
        assert report.decayed == 10


class TestStatePlumbing:
    def test_on_evicted_forwards(self, decaying):
        inner = LinearDecayFungus(rate=0.1)
        fungus = AccessRefreshFungus(inner)
        fungus.note_access(RowSet([3]))
        fungus.on_evicted((3,))
        assert 3 not in fungus._pending

    def test_on_compacted_remaps_pending(self, decaying):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
        fungus.note_access(RowSet([5]))
        fungus.on_compacted({5: 2})
        assert fungus._pending == {2}

    def test_reset(self, decaying):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
        fungus.note_access(RowSet([1]))
        fungus.reset()
        assert fungus._pending == set()
