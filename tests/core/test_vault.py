"""Tests for repro.core.vault (SummaryVault)."""

import pytest

from repro.core.distill import Distiller
from repro.core.vault import SummaryVault
from repro.errors import DistillError
from repro.storage import RowSet


def freshness_of(vault, table_name):
    """Vault-freshness of the fresh entries, oldest first, as persisted."""
    return [e["freshness"] for e in vault.to_dict()["entries"].get(table_name, [])]


@pytest.fixture
def vault():
    return SummaryVault(half_life=2.0, compost_below=0.4)


@pytest.fixture
def distiller(vault):
    return Distiller(vault)


class TestValidation:
    def test_half_life_positive(self):
        with pytest.raises(DistillError):
            SummaryVault(half_life=0)

    def test_compost_threshold_range(self):
        with pytest.raises(DistillError):
            SummaryVault(compost_below=1.0)


class TestDecay:
    def test_entries_start_fresh(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0]), reason="decay")
        assert freshness_of(vault, "r") == [1.0]
        assert vault.fresh_count("r") == 1

    def test_freshness_halves_per_half_life(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0]), reason="decay")
        vault.on_tick(1)
        vault.on_tick(2)
        assert freshness_of(vault, "r")[0] == pytest.approx(0.5)

    def test_composting_below_threshold(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="decay")
        composted = 0
        for tick in range(1, 10):
            composted += vault.on_tick(tick)
            if composted:
                break
        assert composted == 1
        assert vault.fresh_count("r") == 0
        assert vault.compost("r") is not None
        assert vault.composted_summaries == 1

    def test_compost_accumulates(self, vault, distiller, decaying):
        for rid in range(4):
            distiller.distill_rowset(decaying, RowSet([rid]), reason="decay")
        for tick in range(1, 20):
            vault.on_tick(tick)
        assert vault.fresh_count("r") == 0
        assert vault.compost("r").row_count == 4

    def test_no_decay_without_ticks(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0]), reason="decay")
        assert freshness_of(vault, "r") == [1.0]


class TestConservation:
    def test_merged_includes_compost(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0, 1, 2]), reason="a")
        for tick in range(1, 8):
            vault.on_tick(tick)
        distiller.distill_rowset(decaying, RowSet([3]), reason="b")
        merged = vault.merged("r")
        assert merged.row_count == 4

    def test_for_table_orders_compost_first(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0]), reason="old")
        for tick in range(1, 8):
            vault.on_tick(tick)
        distiller.distill_rowset(decaying, RowSet([1]), reason="new")
        summaries = vault.for_table("r")
        assert len(summaries) == 2
        assert summaries[0] is vault.compost("r")

    def test_total_rows_summarised(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="a")
        assert vault.total_rows_summarised == 2

    def test_empty_table_merged_none(self, vault):
        assert vault.merged("nothing") is None

    def test_tables_listing(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0]), reason="a")
        assert list(vault.tables()) == ["r"]

    def test_memory_cells_counts_compost(self, vault, distiller, decaying):
        distiller.distill_rowset(decaying, RowSet([0]), reason="a")
        before = vault.memory_cells()
        for tick in range(1, 10):
            vault.on_tick(tick)
        assert vault.memory_cells() > 0
        assert before > 0


class TestFungusDbIntegration:
    def test_db_ticks_vault(self, decaying):
        from repro import FungusDB, LinearDecayFungus, Schema

        vault = SummaryVault(half_life=1.0, compost_below=0.6)
        db = FungusDB(seed=1, store=vault)
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.5))
        db.insert("r", {"v": 1})
        db.tick(6)
        assert vault.composted_summaries >= 1
        assert db.merged_summary("r").row_count == 1
