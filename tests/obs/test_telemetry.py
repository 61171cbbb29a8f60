"""Tests for repro.obs.telemetry — the attach/detach facade."""

import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.fungi import LinearDecayFungus
from repro.obs.export import parse_prometheus, sample_value
from repro.obs.profile import PROFILER
from repro.obs.tracing import NULL_TRACER, validate_spans
from repro.storage.schema import Schema


@pytest.fixture(autouse=True)
def _clean_profiler():
    PROFILER.disable()
    PROFILER.reset()
    yield
    PROFILER.disable()
    PROFILER.reset()


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
        tel = db.enable_telemetry()
        assert tel.tracer.enabled is False
        assert db.tracer is NULL_TRACER

    def test_tracing_wires_one_shared_tracer(self):
        db = FungusDB(seed=1)
        tel = db.enable_telemetry(tracing=True)
        assert db.tracer is tel.tracer
        assert db.clock.tracer is tel.tracer
        assert db.engine.tracer is tel.tracer

    def test_disable_restores_null_tracer(self):
        db = FungusDB(seed=1)
        db.enable_telemetry(tracing=True, profile=True)
        db.disable_telemetry()
        assert db.telemetry is None
        assert db.tracer is NULL_TRACER
        assert PROFILER.enabled is False
        db.disable_telemetry()  # no-op when not enabled


class TestExposition:
    def test_exposition_parses_and_counts(self):
        db = FungusDB(seed=1)
        tel = db.enable_telemetry()
        _workload(db)
        samples = parse_prometheus(tel.exposition())
        assert sample_value(samples, "repro_inserts_total", table="r") == 8.0
        assert sample_value(samples, "repro_consumed_tuples_total", table="r") == 2.0
        assert sample_value(samples, "repro_extent", table="r") == 6.0

    def test_profiler_sites_folded_into_exposition(self):
        db = FungusDB(seed=1)
        tel = db.enable_telemetry(profile=True)
        _workload(db)
        samples = parse_prometheus(tel.exposition())
        assert sample_value(samples, "repro_hotpath_calls", site="query.scan") > 0


class TestTraceCapture:
    def test_workload_spans_nest_and_validate(self):
        db = FungusDB(seed=1)
        tel = db.enable_telemetry(tracing=True)
        _workload(db)
        spans = tel.tracer.to_dicts()
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
        db.enable_telemetry(trace_path=path)
        _workload(db)
        db.disable_telemetry()
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
        tel = db.enable_telemetry(tracing=True)
        save_checkpoint(db, tmp_path / "ckpt")
        assert any(s.name == "checkpoint.save" for s in tel.tracer.finished)
