"""Tests for the access-refresh fungus."""

import random

import pytest

from repro.core.db import FungusDB
from repro.errors import DecayError
from repro.fungi import AccessRefreshFungus, EGIFungus, LinearDecayFungus
from repro.storage import RowSet, Schema


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


class TestAccessHook:
    """The engine hands matched rows only to a fungus that notes them."""

    @staticmethod
    def _count_rowsets(monkeypatch) -> list:
        built: list = []
        real = RowSet.from_sorted.__func__

        def from_sorted(cls, rows):
            built.append(len(rows))
            return real(cls, rows)

        monkeypatch.setattr(RowSet, "from_sorted", classmethod(from_sorted))
        return built

    def test_select_without_a_refreshing_fungus_builds_no_rowset(self, monkeypatch):
        db = FungusDB(seed=2)
        db.create_table("r", Schema.of(v="int"), fungus=EGIFungus())
        db.insert_many("r", [{"v": i} for i in range(50)])
        built = self._count_rowsets(monkeypatch)
        assert len(db.query("SELECT v FROM r WHERE v < 30").rows) == 30
        assert built == []
        consumed = db.query("CONSUME SELECT v FROM r WHERE v < 10").consumed
        assert len(consumed) == 10 and built == [10]

    def test_only_the_refreshing_table_notes_its_accesses(self):
        db = FungusDB(seed=2)
        db.create_table("plain", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1))
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
        db.create_table("cared", Schema.of(v="int"), fungus=fungus)
        for name in ("plain", "cared"):
            db.insert_many(name, [{"v": i} for i in range(6)])
        db.query("SELECT v FROM plain WHERE v < 4")
        assert fungus._pending == set()
        db.query("SELECT v FROM cared WHERE v < 2")
        assert fungus._pending == {0, 1}
        # dropped and re-created: one hook still, feeding the new fungus
        db.drop_table("cared")
        again = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
        accessed: list = []
        again.note_access = accessed.append
        db.create_table("cared", Schema.of(v="int"), fungus=again)
        db.insert_many("cared", [{"v": i} for i in range(6)])
        db.query("SELECT v FROM cared WHERE v >= 4")
        assert accessed == [RowSet([4, 5])]
