"""Tests for repro.obs.tracing."""

import pytest

from repro.errors import ObsError
from repro.obs.tracing import (
    JsonlTraceExporter,
    Tracer,
    read_trace,
    validate_spans,
    validate_trace,
)


class TestTracer:
    def test_nesting_links_parent_and_child(self):
        tracer = Tracer()
        with tracer.span("tick") as outer:
            with tracer.span("policy.cycle") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert [s.name for s in tracer.finished] == ["policy.cycle", "tick"]

    def test_sequential_ids_are_deterministic(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [s.span_id for s in tracer.finished]
        traces = [s.trace_id for s in tracer.finished]
        assert ids == [1, 2]
        assert traces == [1, 2]  # siblings at the root start new traces

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("query", kind="select") as span:
            span.set(rows=3)
        record = tracer.to_dicts()[0]
        assert record["attrs"] == {"kind": "select", "rows": 3}
        assert record["status"] == "ok"
        assert record["duration"] >= 0.0

    def test_exception_marks_span_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("tick"):
                raise ValueError("boom")
        record = tracer.to_dicts()[0]
        assert record["status"] == "error"
        assert "ValueError" in record["attrs"]["error"]

    def test_current_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
        assert tracer.current is None

    def test_leaked_inner_span_is_unwound(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        outer.__enter__()
        tracer.span("leaked").__enter__()  # never exited
        outer.__exit__(None, None, None)
        assert tracer.current is None

    def test_null_tracer_records_nothing(self):
        ticks = iter([1.0, 1.25])
        tracer = Tracer(max_finished=0, time_fn=lambda: next(ticks))
        with tracer.span("tick", x=1) as span:
            assert tracer.current is span  # still on the stack while open
            span.set(rows=5)
        assert len(tracer.finished) == 0
        assert tracer.current is None
        assert span.duration == 0.25  # timed all the same

    def test_duration_is_end_minus_start(self):
        ticks = iter([2.0, 2.5, 3.0, 4.0])
        tracer = Tracer(time_fn=lambda: next(ticks))
        with tracer.span("outer") as outer:
            assert outer.duration == 0.0  # open: no end yet
            with tracer.span("inner") as inner:
                pass
        assert inner.duration == 0.5
        assert outer.duration == 2.0
        assert tracer.to_dicts()[1]["duration"] == outer.duration

    def test_explicit_parents(self):
        tracer = Tracer()
        with tracer.detached_span("server.request") as root:
            assert tracer.current is None  # detached: never on the stack
            with tracer.detached_span("frame.decode", root) as stage:
                pass
            with tracer.span("worker.exec", root) as anchor:
                assert tracer.current is anchor
                with tracer.span("query") as query:
                    pass
            now = tracer.now()
            waited = tracer.record_span("admission.wait", root, now, now - 1.0)
        assert stage.parent_id == anchor.parent_id == root.span_id
        assert query.parent_id == anchor.span_id
        assert {root.trace_id, stage.trace_id, query.trace_id} == {root.trace_id}
        assert root.parent_id is None
        assert waited.duration == 0.0  # a reversed interval clamps to empty
        assert validate_spans(tracer.to_dicts()) == []


class TestJsonlRoundTrip:
    def test_export_read_validate(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(exporter=JsonlTraceExporter(path))
        with tracer.span("tick", clock=1):
            with tracer.span("policy.cycle", table="r"):
                pass
        tracer.close()
        spans = read_trace(path)
        assert len(spans) == 2
        assert validate_spans(spans) == []
        assert validate_trace(path) == []

    def test_exporter_counts_spans(self, tmp_path):
        exporter = JsonlTraceExporter(tmp_path / "t.jsonl")
        tracer = Tracer(exporter=exporter)
        with tracer.span("a"):
            pass
        assert exporter.spans_written == 1
        tracer.close()
        tracer.close()  # idempotent

    def test_bad_json_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "a"}\nnot json\n')
        with pytest.raises(ObsError, match="bad JSON"):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ObsError):
            read_trace(tmp_path / "absent.jsonl")

    def test_empty_trace_is_a_problem(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert validate_trace(path) != []


class TestValidateSpans:
    def _span(self, **over):
        base = {
            "name": "x",
            "trace_id": 1,
            "span_id": 1,
            "parent_id": None,
            "start": 0.0,
            "end": 1.0,
        }
        base.update(over)
        return base

    def test_missing_keys(self):
        assert validate_spans([{"name": "x"}])

    def test_duplicate_span_ids(self):
        spans = [self._span(), self._span()]
        assert any("duplicate" in p for p in validate_spans(spans))

    def test_unknown_parent(self):
        spans = [self._span(span_id=2, parent_id=99)]
        assert any("unknown" in p for p in validate_spans(spans))

    def test_parent_opened_after_child(self):
        spans = [
            self._span(span_id=2, parent_id=None),
            self._span(span_id=1, parent_id=2),
        ]
        assert any("before its parent" in p for p in validate_spans(spans))

    def test_child_escaping_parent_interval(self):
        spans = [
            self._span(span_id=1, start=0.0, end=1.0),
            self._span(span_id=2, parent_id=1, start=0.5, end=2.0),
        ]
        assert any("escapes parent" in p for p in validate_spans(spans))

    def test_cross_trace_parent(self):
        spans = [
            self._span(span_id=1, trace_id=1),
            self._span(span_id=2, parent_id=1, trace_id=2),
        ]
        assert any("crosses traces" in p for p in validate_spans(spans))

    def test_valid_tree_passes(self):
        spans = [
            self._span(span_id=1, start=0.0, end=2.0),
            self._span(span_id=2, parent_id=1, start=0.5, end=1.5),
        ]
        assert validate_spans(spans) == []
