"""Tests for repro.obs.collector — the event-bus → metrics bridge."""

import pytest

from repro.core.db import FungusDB
from repro.core.events import RestoreCompleted, TupleInfectedBatch
from repro.fungi import EGIFungus, LinearDecayFungus
from repro.obs.collector import BusCollector
from repro.storage.schema import Schema


@pytest.fixture
def collected():
    """A one-table db with an attached collector."""
    db = FungusDB(seed=5)
    db.create_table(
        "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.2)
    )
    collector = BusCollector().attach(db)
    return db, collector


class TestCounters:
    def test_inserts_counted_per_table(self, collected):
        db, collector = collected
        for i in range(4):
            db.insert("r", {"v": i})
        assert collector.registry.value("repro_inserts_total", table="r") == 4.0

    def test_decay_and_freshness_mass(self, collected):
        db, collector = collected
        db.insert("r", {"v": 1})
        db.tick(2)
        registry = collector.registry
        assert registry.value(
            "repro_decay_events_total", table="r", fungus="linear"
        ) == 2.0
        assert registry.value(
            "repro_freshness_removed_total", table="r", fungus="linear"
        ) == pytest.approx(0.4)

    def test_eviction_and_tick_metrics(self, collected):
        db, collector = collected
        db.insert("r", {"v": 1})
        db.tick(6)  # rate 0.2 -> exhausted at tick 5, evicted on the 6th
        registry = collector.registry
        assert registry.value("repro_evictions_total", table="r", reason="decay") == 1.0
        assert registry.value("repro_ticks_total", table="r") == 6.0
        assert registry.value("repro_eviction_rate", table="r") > 0.0

    def test_consume_metrics(self, collected):
        db, collector = collected
        for i in range(6):
            db.insert("r", {"v": i})
        db.query("CONSUME SELECT v FROM r WHERE v < 2")
        registry = collector.registry
        assert registry.value("repro_consumed_tuples_total", table="r") == 2.0
        assert registry.value("repro_consume_rate", table="r") > 0.0
        assert registry.value("repro_evictions_total", table="r", reason="consume") == 2.0

    def test_infections_labelled_by_fungus(self):
        db = FungusDB(seed=5)
        db.create_table(
            "r", Schema.of(v="int"), fungus=EGIFungus(seeds_per_cycle=1, decay_rate=0.1)
        )
        collector = BusCollector().attach(db)
        for i in range(10):
            db.insert("r", {"v": i})
        db.tick(3)
        assert collector.registry.value(
            "repro_infections_total", table="r", fungus="egi"
        ) > 0.0

    def test_infection_batches_fold_to_the_per_tuple_count(self):
        """One ``TupleInfectedBatch`` per EGI cycle adds its length."""
        db = FungusDB(seed=5)
        db.create_table(
            "r", Schema.of(v="int"), fungus=EGIFungus(seeds_per_cycle=3, decay_rate=0.3)
        )
        collector = BusCollector().attach(db)
        batches: list = []
        db.bus.subscribe(TupleInfectedBatch, batches.append)
        db.insert_many("r", [{"v": i} for i in range(200)])
        db.tick(8)
        infections = collector.registry.value(
            "repro_infections_total", table="r", fungus="egi"
        )
        tuples = sum(len(batch) for batch in batches)
        assert infections == tuples == db.bus.counts["TupleInfected"] > 8
        assert len(batches) == 8  # one per cycle


class TestGauges:
    def test_tick_samples_gauges(self, collected):
        db, collector = collected
        for i in range(3):
            db.insert("r", {"v": i})
        db.tick(1)
        registry = collector.registry
        assert registry.value("repro_extent", table="r") == 3.0
        assert registry.value("repro_band_occupancy", table="r", band="fresh") == 3.0

    def test_tombstone_ratio(self, collected):
        db, collector = collected
        for i in range(4):
            db.insert("r", {"v": i})
        db.query("CONSUME SELECT v FROM r WHERE v < 2")
        collector.sample_table("r")
        assert collector.registry.value("repro_tombstone_ratio", table="r") == 0.5


class TestRestoreCompensation:
    def test_restore_event_reclassifies_inserts(self, collected):
        db, collector = collected
        for i in range(5):
            db.insert("r", {"v": i})
        db.bus.publish(RestoreCompleted("r", 0.0, rows=5))
        registry = collector.registry
        assert registry.value("repro_inserts_total", table="r") == 0.0
        assert registry.value("repro_restored_rows_total", table="r") == 5.0


class TestWiring:
    def test_double_attach_rejected(self, collected):
        db, collector = collected
        with pytest.raises(RuntimeError):
            collector.attach(db)

    def test_detach_stops_collection(self, collected):
        db, collector = collected
        db.insert("r", {"v": 1})
        collector.detach()
        db.insert("r", {"v": 2})
        assert collector.registry.value("repro_inserts_total", table="r") == 1.0
        collector.detach()  # second detach is a no-op
