"""One batch write path from ``FungusDB`` down: all-or-nothing batches,
one insert event per batch with a per-tuple ledger, and every caller
(SQL ``INSERT``, checkpoint restore, the trace recorder) on it."""

import json

import pytest

import repro.core.events as events_module
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.core.events import (
    EventBus,
    RestoreCompleted,
    TupleInserted,
    TupleInsertedBatch,
)
from repro.core.table import DecayingTable
from repro.errors import EventFanoutError, QueryError, SchemaError
from repro.fungi import LinearDecayFungus
from repro.obs.collector import BusCollector
from repro.obs.export import render_prometheus
from repro.storage import RowSet, Schema, Table
from repro.workload.trace import RecordingDB


def make_db(**options) -> FungusDB:
    db = FungusDB(seed=3)
    db.create_table("r", Schema.of(v="int", s="str"), **options)
    db.catalog.create_hash_index("r", "v")
    return db


def footprint(db: FungusDB, seen: list) -> tuple:
    table = db.tables["r"]
    return (
        db.extent("r"),
        table.storage.allocated,
        table.storage.rot_spans(),
        db.catalog.hash_index("r", "v").lookup(1),
        db.catalog.sorted_index("r", "t").ascending(),
        dict(db.bus.counts),
        len(seen),
    )


class TestAllOrNothing:
    """At the parent the first two rows were inserted, indexed and
    published before the third raised."""

    def test_insert_many_with_a_bad_row_leaves_nothing_behind(self):
        db = make_db()
        db.insert_many("r", [{"v": 1, "s": "a"}])
        seen: list = []
        db.bus.subscribe(TupleInserted, seen.append)
        db.bus.subscribe(TupleInsertedBatch, seen.append)
        before = footprint(db, seen)
        with pytest.raises(SchemaError, match="expected int, got 'bad'"):
            db.insert_many(
                "r", [{"v": 1, "s": "a"}, {"v": 2, "s": "b"}, {"v": "bad", "s": "c"}]
            )
        assert footprint(db, seen) == before

    @pytest.mark.parametrize(
        "third", ["('bad', 'c')", "(true, 'c')", "(1 / 0, 'c')", "(3)"]
    )
    def test_sql_insert_with_a_bad_row_leaves_nothing_behind(self, third):
        db = make_db()
        db.query("INSERT INTO r VALUES (1, 'a')")
        seen: list = []
        db.bus.subscribe(TupleInserted, seen.append)
        before = footprint(db, seen)
        with pytest.raises((SchemaError, QueryError)):
            db.query(f"INSERT INTO r VALUES (1, 'a'), (2, 'b'), {third}")
        assert footprint(db, seen) == before

    def test_sql_insert_is_one_batch(self):
        db = make_db()
        batches: list = []
        db.bus.subscribe(TupleInsertedBatch, batches.append)
        result = db.query("INSERT INTO r (s, v) VALUES ('a', 1), ('b', 2), ('c', 3)")
        assert result.scalar() == 3
        assert [(b.start, b.stop) for b in batches] == [(0, 3)]
        assert [r["v"] for r in db.table("r").rows()] == [1, 2, 3]

    def test_sql_insert_into_a_plain_table_appends_one_batch(self):
        db = make_db()
        plain = Table(Schema.of(k="int"), name="plain")
        db.catalog.register(plain)
        calls: list = []

        class Watcher:
            def on_append_many(self, rids, columns):
                calls.append(list(rids))

        plain.add_observer(Watcher())
        db.query("INSERT INTO plain VALUES (1), (2)")
        assert calls == [[0, 1]]
        with pytest.raises(SchemaError):
            db.query("INSERT INTO plain VALUES (3), ('x')")
        assert len(plain) == 2


class TestEventContract:
    def test_ledger_counts_tuples_and_the_batch_is_delivered_once(self):
        db = make_db()
        batches: list = []
        db.bus.subscribe(TupleInsertedBatch, batches.append)
        rows = db.insert_many("r", [{"v": i, "s": "x"} for i in range(5)])
        assert db.bus.counts["TupleInserted"] == 5
        assert "TupleInsertedBatch" not in db.bus.counts
        assert batches == [TupleInsertedBatch("r", 0.0, 0, 5)]
        assert len(batches[0]) == 5
        assert rows == RowSet.span(0, 5)

    def test_per_tuple_subscribers_get_one_event_per_row_in_rid_order(self):
        db = make_db()
        db.tick(2)
        seen: list = []
        db.bus.subscribe(TupleInserted, seen.append)
        db.insert_many("r", [{"v": i, "s": "x"} for i in range(3)])
        db.insert("r", {"v": 9, "s": "y"})
        assert seen == [TupleInserted("r", 2.0, rid) for rid in range(4)]
        assert db.bus.counts["TupleInserted"] == 4

    def test_a_subscriber_may_already_see_the_rest_of_its_batch(self):
        db = make_db()
        extents: list = []
        db.bus.subscribe(TupleInserted, lambda e: extents.append(db.extent("r")))
        db.insert_many("r", [{"v": i, "s": "x"} for i in range(3)])
        assert extents == [3, 3, 3]

    def test_empty_batch_publishes_nothing(self):
        db = make_db()
        batches: list = []
        db.bus.subscribe(TupleInsertedBatch, batches.append)
        assert db.insert_many("r", []) == RowSet.empty()
        assert batches == [] and not db.bus.counts

    def test_fan_out_is_complete_across_batch_and_tuple_handlers(self):
        bus = EventBus()
        seen: list = []

        def bad_batch(event):
            raise ValueError("batch handler")

        def bad_row(event):
            if event.rid == 1:
                raise KeyError("row handler")

        bus.subscribe(TupleInsertedBatch, bad_batch)
        bus.subscribe(TupleInserted, bad_row)
        bus.subscribe(TupleInserted, seen.append)
        with pytest.raises(EventFanoutError):
            bus.publish(TupleInsertedBatch("r", 0.0, 0, 3))
        assert [e.rid for e in seen] == [0, 1, 2]


class TestCallCounts:
    def test_a_clean_batch_never_touches_the_per_row_steps(self, monkeypatch):
        db = make_db()
        counts = {"coerce_row": 0, "append": 0, "TupleInserted": 0, "publish": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Schema, "coerce_row", counting("coerce_row", Schema.coerce_row)
        )
        monkeypatch.setattr(Table, "append", counting("append", Table.append))
        monkeypatch.setattr(EventBus, "publish", counting("publish", EventBus.publish))
        monkeypatch.setattr(
            EventBus, "publish_lazy", counting("publish", EventBus.publish_lazy)
        )
        monkeypatch.setattr(
            events_module.TupleInserted,
            "__init__",
            counting("TupleInserted", events_module.TupleInserted.__init__),
        )
        db.insert_many("r", [{"v": i, "s": "x"} for i in range(1000)])
        assert counts == {"coerce_row": 0, "append": 0, "TupleInserted": 0, "publish": 1}
        assert db.bus.counts["TupleInserted"] == 1000

    def test_inserts_total_is_byte_equal_to_the_per_row_fold(self):
        class PerTupleCollector(BusCollector):
            """The reference: one ``labels().inc()`` per inserted tuple."""

            def attach(self, db):
                super().attach(db)
                db.bus.unsubscribe(TupleInsertedBatch, self._on_inserted_batch)
                db.bus.subscribe(
                    TupleInserted, lambda e: self.inserts.labels(table=e.table).inc()
                )
                return self

        db = make_db(fungus=LinearDecayFungus(rate=0.3))
        db.create_table("other", Schema.of(v="int"))
        folded = BusCollector().attach(db)
        per_tuple = PerTupleCollector().attach(db)
        for tick in range(6):
            db.insert_many("r", [{"v": i, "s": "x"} for i in range(tick * 7)])
            db.insert("other", {"v": tick})
            db.query("INSERT INTO r VALUES (1, 'a'), (2, 'b')")
            db.tick(1)
        text = render_prometheus(folded.registry)
        assert text == render_prometheus(per_tuple.registry)
        assert 'repro_inserts_total{table="r"} 117' in text


#: what PR 20's ``save_checkpoint`` wrote for a four-row table (one row
#: exhausted, one pinned) — the on-disk format is not touched
PR20_MANIFEST = {
    "manifest_version": 1,
    "clock": 3.0,
    "seed": 5,
    "tables": ["r"],
    "pinned": {"r": [1]},
    "store": False,
    "forensics": False,
    "querystats": False,
}
PR20_TABLE = (
    '{"format_version": 1, "table": "r", "schema": {"columns": ['
    '{"name": "t", "dtype": "timestamp", "nullable": false}, '
    '{"name": "f", "dtype": "float", "nullable": false}, '
    '{"name": "v", "dtype": "int", "nullable": false}, '
    '{"name": "s", "dtype": "str", "nullable": false}]}, "rows": 4}\n'
    '[0.0, 0.25, 0, "a"]\n[0.0, 0.5, 1, "b"]\n[0.0, 0.0, 3, "b"]\n[2.0, 1.0, 10, "c"]\n'
)


class TestRestore:
    def test_restore_many_keeps_t_f_and_rejoins_the_exhausted_set(self, clock):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        clock.advance(5)
        events: list = []
        table.bus.subscribe(TupleInsertedBatch, events.append)
        rows = table.restore_many(
            [
                {"t": 1.0, "f": 0.5, "v": 1},
                {"t": 2.0, "f": 0.0, "v": 2},
                {"t": 3, "f": 1.0, "v": 3},
            ]
        )
        assert rows == RowSet([0, 1, 2])
        assert table.rows()[0] == {"t": 1.0, "f": 0.5, "v": 1}
        assert table.exhausted == RowSet([1])
        assert table.storage.rot_spans() == [(0, 1)]
        assert events == [TupleInsertedBatch("r", 5.0, 0, 3)]

    def test_a_nan_freshness_does_not_hide_an_exhausted_neighbour(self, clock):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        table.restore_many(
            [{"t": 0.0, "f": float("nan"), "v": 1}, {"t": 0.0, "f": 0.0, "v": 2}]
        )
        assert table.exhausted == RowSet([1])

    def test_restore_many_with_a_bad_row_restores_nothing(self, clock):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        with pytest.raises(SchemaError):
            table.restore_many([{"t": 1.0, "f": 0.0, "v": 1}, {"t": 1.0, "v": 2}])
        assert len(table) == 0 and table.exhausted_count == 0
        assert not table.bus.counts

    def test_a_pr20_checkpoint_loads_unchanged(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(PR20_MANIFEST))
        (tmp_path / "r.jsonl").write_text(PR20_TABLE)
        completed: list = []
        loaded = load_checkpoint(tmp_path, telemetry=True)
        loaded.bus.subscribe(RestoreCompleted, completed.append)
        table = loaded.table("r")
        assert loaded.now == 3.0
        assert [r["v"] for r in table.rows()] == [0, 1, 3, 10]
        assert [r["f"] for r in table.rows()] == [0.25, 0.5, 0.0, 1.0]
        assert table.exhausted == RowSet([2])
        assert table.pinned == RowSet([1])
        assert table.storage.rot_spans() == [(0, 2)]
        assert loaded.bus.counts["TupleInserted"] == 4
        assert loaded.bus.counts["RestoreCompleted"] == 1
        registry = loaded.telemetry.registry
        assert registry.value("repro_inserts_total", table="r") == 0
        assert registry.value("repro_restored_rows_total", table="r") == 4

    def test_checkpoint_round_trip_restores_in_one_batch(self, tmp_path, monkeypatch):
        db = make_db(fungus=LinearDecayFungus(rate=0.3))
        db.insert_many("r", [{"v": i, "s": "x"} for i in range(20)])
        db.tick(2)
        db.insert_many("r", [{"v": i, "s": "y"} for i in range(5)])
        save_checkpoint(db, tmp_path)
        monkeypatch.setattr(
            Table, "append", lambda *a: pytest.fail("per-row append on restore")
        )
        loaded = load_checkpoint(tmp_path)
        assert loaded.table("r").rows() == db.table("r").rows()
        assert loaded.table("r").storage.rot_spans() == [(0, 19)]


class TestCallers:
    def test_recording_db_records_per_row_and_forwards_one_batch(self):
        recorded = RecordingDB(make_db())
        batches: list = []
        recorded.db.bus.subscribe(TupleInsertedBatch, batches.append)
        recorded.insert_many("r", ({"v": i, "s": "x"} for i in range(3)))
        assert recorded.recorder.events == 3
        assert [(b.start, b.stop) for b in batches] == [(0, 3)]

    def test_recording_db_records_nothing_of_a_batch_that_raised(self):
        recorded = RecordingDB(make_db())
        with pytest.raises(SchemaError):
            recorded.insert_many("r", [{"v": 1, "s": "x"}, {"v": "bad", "s": "x"}])
        assert recorded.recorder.events == 0
        assert recorded.db.extent("r") == 0

    def test_stats_reads_the_exhausted_count_without_building_a_rowset(
        self, monkeypatch
    ):
        db = make_db()
        rid = db.insert("r", {"v": 1, "s": "a"})
        db.table("r").set_freshness(rid, 0.0)
        monkeypatch.setattr(
            DecayingTable,
            "exhausted",
            property(lambda self: pytest.fail("sorted RowSet built for a length")),
        )
        assert db.stats()["tables"]["r"]["exhausted"] == 1
