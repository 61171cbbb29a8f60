"""Tests for repro.obs.telemetry — the attach/detach facade.

Telemetry is metrics only: it never reads or replaces ``db.tracer``,
which is attached one way — by assignment — and survives any
enable/disable sequence around it.
"""

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.fungi import LinearDecayFungus
from repro.obs.export import parse_prometheus, sample_value
from repro.obs.tracing import JsonlTraceExporter, Tracer, validate_spans
from repro.storage.schema import Schema


def _workload(db):
    db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1))
    for i in range(8):
        db.insert("r", {"v": i})
    db.tick(3)
    db.query("CONSUME SELECT v FROM r WHERE v < 2")


class TestAttachDetach:
    def test_enable_is_idempotent(self):
        db = FungusDB(seed=1)
        assert db.enable_telemetry() is db.enable_telemetry()

    def test_metrics_only_leaves_null_tracer(self):
        db = FungusDB(seed=1)
        own = db.tracer
        db.enable_telemetry()
        assert db.tracer is own
        assert own.finished.maxlen == 0 and own.exporter is None
        _workload(db)
        assert len(own.finished) == 0  # spans timed, none kept

    def test_tracing_wires_one_shared_tracer(self):
        db = FungusDB(seed=1)
        db.enable_telemetry()
        tracer = Tracer()
        db.tracer = tracer
        _workload(db)
        assert db.clock.tracer is tracer
        assert db.engine.tracer is tracer
        assert db.table("r").tracer is tracer
        assert {"tick", "query"} <= {span.name for span in tracer.finished}

    def test_disable_restores_null_tracer(self):
        db = FungusDB(seed=1)
        own = db.tracer
        db.enable_telemetry()
        db.disable_telemetry()
        assert db.telemetry is None
        assert db.tracer is own  # the database's own tracer, untouched
        db.disable_telemetry()  # no-op when not enabled

    def test_enable_keeps_the_callers_tracer(self):
        db = FungusDB(seed=1)
        tracer = Tracer()
        db.tracer = tracer
        db.enable_telemetry()
        assert db.tracer is tracer
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1))
        db.insert("r", {"v": 1})
        db.tick(2)
        db.query("SELECT v FROM r")
        names = [span.name for span in tracer.finished]
        assert names.count("tick") == 2 and "query" in names

    def test_disable_keeps_a_tracer_installed_after_enable(self):
        db = FungusDB(seed=1)
        db.enable_telemetry()
        tracer = Tracer()
        db.tracer = tracer
        db.disable_telemetry()
        assert db.tracer is tracer
        assert db.clock.tracer is tracer and db.engine.tracer is tracer
        db.tick(1)
        assert [span.name for span in tracer.finished][-1] == "tick"


class TestExposition:
    def test_exposition_parses_and_counts(self):
        db = FungusDB(seed=1)
        tel = db.enable_telemetry()
        _workload(db)
        samples = parse_prometheus(tel.exposition())
        assert sample_value(samples, "repro_inserts_total", table="r") == 8.0
        assert sample_value(samples, "repro_consumed_tuples_total", table="r") == 2.0
        assert sample_value(samples, "repro_extent", table="r") == 6.0


class TestTraceCapture:
    def test_workload_spans_nest_and_validate(self):
        db = FungusDB(seed=1)
        db.tracer = Tracer()
        _workload(db)
        spans = db.tracer.to_dicts()
        assert validate_spans(spans) == []
        names = {span["name"] for span in spans}
        assert {"tick", "clock.advance", "policy.cycle", "query", "consume"} <= names
        # policy.cycle spans are children of a tick span
        by_id = {span["span_id"]: span for span in spans}
        cycle = next(s for s in spans if s["name"] == "policy.cycle")
        assert by_id[cycle["parent_id"]]["name"] == "tick"

    def test_trace_path_exports_jsonl(self, tmp_path):
        from repro.obs.tracing import validate_trace

        path = tmp_path / "db.jsonl"
        db = FungusDB(seed=1)
        db.tracer = Tracer(JsonlTraceExporter(path))
        _workload(db)
        db.tracer.close()
        assert validate_trace(path) == []


class TestRestoreAccounting:
    def test_restore_does_not_double_count_inserts(self, tmp_path):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        for i in range(12):
            db.insert("r", {"v": i})
        save_checkpoint(db, tmp_path / "ckpt")

        restored = load_checkpoint(tmp_path / "ckpt", telemetry=True)
        registry = restored.telemetry.registry
        assert registry.value("repro_inserts_total", table="r") == 0.0
        assert registry.value("repro_restored_rows_total", table="r") == 12.0
        # new activity counts normally from the restored baseline
        restored.insert("r", {"v": 99})
        assert registry.value("repro_inserts_total", table="r") == 1.0

    def test_restore_spans_recorded_when_tracing(self, tmp_path):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        db.insert("r", {"v": 1})
        db.tracer = Tracer()
        save_checkpoint(db, tmp_path / "ckpt")
        assert any(s.name == "checkpoint.save" for s in db.tracer.finished)
