"""Tests for repro.core.distill."""

import pytest

from repro.core.distill import Distiller, SummaryStore
from repro.core.events import SummaryCreated
from repro.errors import DistillError
from repro.storage import RowSet


class TestSummaryStore:
    def test_negative_budget_rejected(self):
        with pytest.raises(DistillError):
            SummaryStore(max_per_table=-1)

    def test_add_and_fetch(self, decaying):
        store = SummaryStore()
        distiller = Distiller(store)
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="test")
        assert len(store.for_table("r")) == 1
        assert store.total_rows_summarised == 2

    def test_unknown_table_empty(self):
        assert SummaryStore().for_table("nope") == []
        assert SummaryStore().merged("nope") is None

    def test_budget_merges_oldest_pair(self, decaying):
        store = SummaryStore(max_per_table=2)
        distiller = Distiller(store)
        for rid in range(6):
            distiller.distill_rowset(decaying, RowSet([rid]), reason=f"r{rid}")
        summaries = store.for_table("r")
        assert len(summaries) == 2
        assert store.merges == 4
        # no rows were lost in the folding
        assert sum(s.row_count for s in summaries) == 6

    def test_merged_covers_everything(self, decaying):
        store = SummaryStore()
        distiller = Distiller(store)
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="a")
        distiller.distill_rowset(decaying, RowSet([2]), reason="b")
        merged = store.merged("r")
        assert merged.row_count == 3

    def test_tables_listing(self, decaying):
        store = SummaryStore()
        Distiller(store).distill_rowset(decaying, RowSet([0]), reason="x")
        assert list(store.tables()) == ["r"]

    def test_memory_cells(self, decaying):
        store = SummaryStore()
        Distiller(store).distill_rowset(decaying, RowSet([0]), reason="x")
        assert store.memory_cells() > 0


class TestDistiller:
    def test_rowset_summary_contents(self, decaying):
        distiller = Distiller()
        summary = distiller.distill_rowset(decaying, RowSet([0, 1, 2]), reason="decay")
        assert summary.row_count == 3
        assert summary.spans == [(0, 3)]
        assert summary.time_range == (0.0, 0.0)
        assert summary.column("v").estimate_mean() == pytest.approx(1.0)

    def test_rowset_event_published(self, decaying):
        seen = []
        decaying.bus.subscribe(SummaryCreated, seen.append)
        Distiller().distill_rowset(decaying, RowSet([0]), reason="decay")
        assert seen[0].rows == 1
        assert seen[0].reason == "decay"

    def test_summaries_include_freshness_column(self, decaying):
        decaying.decay(0, 0.4, "x")
        summary = Distiller().distill_rowset(decaying, RowSet([0]), reason="decay")
        assert summary.column("f").estimate_mean() == pytest.approx(0.6)
