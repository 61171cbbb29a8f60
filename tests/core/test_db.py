"""Tests for repro.core.db (FungusDB) — the integration surface."""

import pytest

from repro.core.events import TupleConsumedBatch, TupleEvictedBatch
from repro.core.policy import EvictionMode
from repro.errors import CatalogError, DecayError
from repro.fungi import AccessRefreshFungus, EGIFungus, LinearDecayFungus
from repro.storage import Schema


@pytest.fixture
def logs_db(db):
    db.create_table("logs", Schema.of(url="str", status="int"), fungus=None)
    for i in range(20):
        db.insert("logs", {"url": f"/p{i % 4}", "status": 200 if i % 5 else 500})
    return db


class TestSchemaManagement:
    def test_create_duplicate_rejected(self, db):
        db.create_table("r", Schema.of(v="int"))
        with pytest.raises(CatalogError):
            db.create_table("r", Schema.of(v="int"))

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            db.table("nope")
        with pytest.raises(CatalogError):
            db.insert("nope", {})

    def test_drop_table(self, logs_db):
        logs_db.drop_table("logs")
        with pytest.raises(CatalogError):
            logs_db.extent("logs")

    def test_drop_keeps_summaries(self, logs_db):
        logs_db.query("CONSUME SELECT * FROM logs WHERE status = 500")
        logs_db.drop_table("logs")
        assert len(logs_db.summaries("logs")) == 1

    def test_time_index_created_by_default(self, db):
        db.create_table("r", Schema.of(v="int"))
        assert db.catalog.sorted_index("r", "t") is not None


class TestLaw1:
    def test_tick_advances_and_decays(self, db):
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.25))
        db.insert("r", {"v": 1})
        db.tick(4)
        assert db.now == 4.0
        assert db.extent("r") == 0  # 4 ticks x 0.25 = fully decayed

    def test_negative_tick_rejected(self, db):
        with pytest.raises(DecayError):
            db.tick(-1)

    def test_per_table_policies_independent(self, db):
        db.create_table("fast", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.5))
        db.create_table("slow", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.05))
        db.insert("fast", {"v": 1})
        db.insert("slow", {"v": 1})
        db.tick(3)
        assert db.extent("fast") == 0
        assert db.extent("slow") == 1

    def test_period_respected(self, db):
        db.create_table(
            "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=1.0), period=5
        )
        db.insert("r", {"v": 1})
        db.tick(4)
        assert db.extent("r") == 1  # fungus has not run yet
        db.tick(1)
        assert db.extent("r") == 0

    def test_eviction_distills_by_default(self, db):
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=1.0))
        db.insert("r", {"v": 7})
        db.tick(1)
        merged = db.merged_summary("r")
        assert merged.row_count == 1

    def test_distill_on_evict_disabled(self, db):
        db.create_table(
            "r",
            Schema.of(v="int"),
            fungus=LinearDecayFungus(rate=1.0),
            distill_on_evict=False,
        )
        db.insert("r", {"v": 7})
        db.tick(1)
        assert db.merged_summary("r") is None


class TestLaw2:
    def test_consume_reduces_extent(self, logs_db):
        res = logs_db.query("CONSUME SELECT url FROM logs WHERE status = 500")
        assert len(res) == 4
        assert logs_db.extent("logs") == 16

    def test_conservation(self, logs_db):
        before = logs_db.extent("logs")
        res = logs_db.query("CONSUME SELECT * FROM logs WHERE status = 500")
        assert logs_db.extent("logs") + len(res.consumed) == before

    def test_consume_distills_by_default(self, logs_db):
        logs_db.query("CONSUME SELECT * FROM logs WHERE status = 500")
        summaries = logs_db.summaries("logs")
        assert len(summaries) == 1
        assert summaries[0].reason == "consume"
        assert summaries[0].row_count == 4

    def test_consume_publishes_events(self, logs_db):
        consumed, evicted = [], []
        logs_db.bus.subscribe(TupleConsumedBatch, consumed.append)
        logs_db.bus.subscribe(TupleEvictedBatch, evicted.append)
        logs_db.query("CONSUME SELECT * FROM logs WHERE status = 500")
        assert [len(e) for e in consumed] == [4]
        assert [(len(e), e.reason) for e in evicted] == [(4, "consume")]

    def test_consume_guard_helper(self, logs_db):
        with pytest.raises(DecayError):
            logs_db.consume("SELECT * FROM logs")

    def test_consume_helper_passes_consuming_query(self, logs_db):
        res = logs_db.consume("CONSUME SELECT * FROM logs WHERE status = 500")
        assert res.stats.rows_consumed == 4

    def test_fungus_state_survives_consume(self, db):
        fungus = EGIFungus(seeds_per_cycle=2, decay_rate=0.1)
        db.create_table("r", Schema.of(v="int"), fungus=fungus)
        for i in range(30):
            db.insert("r", {"v": i})
        db.tick(3)
        db.query("CONSUME SELECT * FROM r WHERE v < 15")
        assert all(db.table("r").is_live(rid) for rid in fungus.infected)


class TestQueries:
    def test_freshness_column_queryable(self, db):
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.3))
        db.insert("r", {"v": 1})
        db.tick(1)
        db.insert("r", {"v": 2})
        res = db.query("SELECT v FROM r WHERE f < 1.0")
        assert res.column("v") == [1]

    def test_time_column_queryable(self, db):
        db.create_table("r", Schema.of(v="int"))
        db.insert("r", {"v": 1})
        db.tick(5)
        db.insert("r", {"v": 2})
        res = db.query("SELECT v FROM r WHERE t >= 5")
        assert res.column("v") == [2]

    def test_access_refresh_through_queries(self, db):
        fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.2), boost=1.0)
        db.create_table("r", Schema.of(v="int"), fungus=fungus)
        db.insert("r", {"v": 1})  # watched
        db.insert("r", {"v": 2})  # unwatched
        for _ in range(4):
            db.query("SELECT v FROM r WHERE v = 1")
            db.tick(1)
        table = db.table("r")
        live = [table.attributes_of(rid)["v"] for rid in table.live_rows()]
        assert 1 in live  # the watched row got refreshed
        freshness = {
            table.attributes_of(rid)["v"]: table.freshness(rid)
            for rid in table.live_rows()
        }
        if 2 in freshness:
            assert freshness[1] > freshness[2]


class TestIntrospection:
    def test_health(self, logs_db):
        health = logs_db.health("logs")
        assert health.extent == 20

    def test_extent(self, logs_db):
        assert logs_db.extent("logs") == 20

    def test_merged_summary_none_initially(self, logs_db):
        assert logs_db.merged_summary("logs") is None


class TestDbStats:
    def test_stats_shape(self, db):
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.5))
        db.insert_many("r", [{"v": 1}, {"v": 2}])
        db.tick(2)
        stats = db.stats()
        assert stats["clock"] == 2.0
        table_stats = stats["tables"]["r"]
        assert table_stats["extent"] == 0
        assert table_stats["tuples_evicted"] == 2
        assert table_stats["tuples_distilled"] == 2
        assert table_stats["fungus"] == "linear"
        assert stats["events"]["TupleInserted"] == 2
        assert stats["summary_rows"] == 2
        assert stats["summary_cells"] > 0

    def test_stats_empty_db(self, db):
        stats = db.stats()
        assert stats["tables"] == {}
        assert stats["clock"] == 0.0
