"""End-to-end request tracing: the span tree survives the wire.

The contract, verified from the outside in: a request carrying a
W3C-shaped ``trace`` field is annotated with it, and every request
leaves a single-rooted tree of stage spans — decode, queue wait,
policy, worker execution, reply — that the structural oracle
:func:`~repro.obs.tracing.validate_spans` accepts. Every duration the
server reports is one of those spans' durations, to the bit.
Malformed trace fields must *never* refuse a request (Hypothesis
hammers the parser), and a mid-run checkpoint restore onto the same
tracer must not recycle span ids.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.fungi import LinearDecayFungus
from repro.obs.export import parse_prometheus
from repro.obs.tracing import TraceContext, Tracer, validate_spans
from repro.server.protocol import read_frame, write_frame

from tests.server.harness import (
    HOST,
    connect,
    raw_connection,
    running_server,
    seeded_db,
)

#: every strong op must produce at least these stage spans
STRONG_STAGES = {"frame.decode", "admission.wait", "policy.analyze", "worker.exec", "reply"}

#: a well-formed client trace context, sent as the payload's ``trace``
CLIENT_TRACE = TraceContext("ab" * 16, "cd" * 8).to_traceparent()


def _traced_db(seed: int = 7) -> tuple:
    db = seeded_db(seed=seed)
    tracer = Tracer()
    db.tracer = tracer
    return db, tracer


def _by_trace(tracer: Tracer) -> dict:
    traces: dict = {}
    for span in tracer.to_dicts():
        traces.setdefault(span["trace_id"], []).append(span)
    return traces


class TestTraceContext:
    def test_roundtrip(self):
        ctx = TraceContext("ab" * 16, "cd" * 8)
        assert TraceContext.parse(ctx.to_traceparent()) == ctx

    def test_rejects_malformed(self):
        bad = [
            None,
            42,
            "",
            "00-abc-def-01",
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "ff-" + "a" * 32 + "-" + "1" * 16 + "-01",  # forbidden version
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # zero span id
            "00-" + "A" * 32 + "-" + "1" * 16 + "-01",  # uppercase
            "00-" + "a" * 32 + "-" + "1" * 16,          # three parts
        ]
        for value in bad:
            assert TraceContext.parse(value) is None, value

    @given(st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=80)))
    @settings(max_examples=200, deadline=None)
    def test_parse_never_raises(self, value):
        parsed = TraceContext.parse(value)
        if parsed is not None:
            # anything accepted must round-trip through the wire form
            assert TraceContext.parse(parsed.to_traceparent()) == parsed

    @given(
        trace_id=st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
        span_id=st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_parse_accepts_all_wellformed(self, trace_id, span_id):
        value = f"00-{trace_id}-{span_id}-01"
        parsed = TraceContext.parse(value)
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            assert parsed is None
        else:
            assert parsed == TraceContext(trace_id, span_id)


class TestEndToEnd:
    def test_strong_query_leaves_a_five_stage_tree(self):
        async def scenario():
            db, tracer = _traced_db()
            async with running_server(db) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 10})
                    await client.query("SELECT k FROM r", trace=CLIENT_TRACE)
                finally:
                    await client.close()
            return tracer

        tracer = asyncio.run(scenario())
        spans = tracer.to_dicts()
        assert validate_spans(spans) == []
        roots = [
            s for s in spans
            if s["name"] == "server.request" and s["attrs"].get("op") == "query"
        ]
        assert len(roots) == 1
        (root,) = roots
        tree = [s for s in spans if s["trace_id"] == root["trace_id"]]
        # a single tree: exactly one root in this trace
        assert sum(1 for s in tree if s["parent_id"] is None) == 1
        names = {s["name"] for s in tree}
        assert STRONG_STAGES <= names
        # the engine's own stack-based span nested under worker.exec
        worker = next(s for s in tree if s["name"] == "worker.exec")
        engine = [s for s in tree if s["parent_id"] == worker["span_id"]]
        assert "query" in {s["name"] for s in engine}
        # client context annotated onto the server root, not grafted into it
        assert root["attrs"]["trace"] == "ab" * 16
        assert root["attrs"]["remote_parent"] == "cd" * 8

    def test_snapshot_read_traces_loop_side_stages(self):
        async def scenario():
            db, tracer = _traced_db()
            async with running_server(db) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 10})
                    await client.tick(1)
                    await client.query("SELECT k FROM r", consistency="snapshot")
                finally:
                    await client.close()
            return tracer

        tracer = asyncio.run(scenario())
        spans = tracer.to_dicts()
        assert validate_spans(spans) == []
        read = next(s for s in spans if s["name"] == "snapshot.read")
        root = next(s for s in spans if s["span_id"] == read["parent_id"])
        assert root["name"] == "server.request"
        assert read["attrs"]["tick"] == 1.0
        assert read["attrs"]["snapshot_rows"] >= 1

    def test_garbage_and_missing_trace_mint_server_roots(self):
        async def scenario():
            db, tracer = _traced_db()
            results = []
            async with running_server(db) as server:
                reader, writer = await raw_connection(server.port)
                await write_frame(writer, {"op": "hello"})
                assert (await read_frame(reader))["ok"]
                for trace in (
                    "not-a-traceparent",
                    "00-zz-zz-01",
                    12345,
                    {"nested": "junk"},
                    "00-" + "0" * 32 + "-" + "0" * 16 + "-01",
                    None,  # sentinel: omit the field entirely
                ):
                    payload = {"op": "ping"}
                    if trace is not None:
                        payload["trace"] = trace
                    await write_frame(writer, payload)
                    results.append(await read_frame(reader))
                writer.close()
                await writer.wait_closed()
            return tracer, results

        tracer, results = asyncio.run(scenario())
        assert all(r["ok"] for r in results)
        roots = [s for s in tracer.to_dicts() if s["name"] == "server.request"]
        pings = [s for s in roots if s["attrs"].get("op") == "ping"]
        assert len(pings) == 6
        # none of the garbage linked: every root is server-minted, bare
        assert all("trace" not in s["attrs"] for s in pings)
        assert validate_spans(tracer.to_dicts()) == []

    def test_traced_consume_lands_in_death_provenance(self):
        async def scenario():
            db, tracer = _traced_db(seed=9)
            forensics = db.enable_forensics()
            async with running_server(db) as server:
                client = await connect(server)  # s1
                actor = await connect(server)   # s2
                try:
                    for k in range(3):
                        await client.insert("r", {"k": k, "v": k})
                    await actor.query(
                        "CONSUME SELECT k FROM r WHERE v < 2", trace=CLIENT_TRACE
                    )
                finally:
                    await client.close()
                    await actor.close()
            return tracer, forensics

        tracer, forensics = asyncio.run(scenario())
        root = next(
            s for s in tracer.to_dicts()
            if s["name"] == "server.request" and s["attrs"].get("op") == "query"
        )
        trace_id = root["attrs"]["trace"]
        consumed = [r for r in forensics.deaths("r") if r.cause == "consumed"]
        assert len(consumed) == 2
        for record in consumed:
            assert record.query.endswith(f"@s2#{trace_id}"), record.query


class TestTelemetry:
    def test_stage_histograms_fill_even_untraced(self):
        async def scenario():
            db = seeded_db()  # non-recording tracer: spans time, none kept
            async with running_server(db) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 1})
                    await client.query("SELECT k FROM r")
                finally:
                    await client.close()
                return server.metrics.exposition()

        samples = parse_prometheus(asyncio.run(scenario()))

        def count(op, stage):
            return samples.get(
                (
                    "repro_server_stage_seconds_count",
                    (("op", op), ("stage", stage)),
                ),
                0.0,
            )

        for stage in ("decode", "admission.wait", "policy.analyze", "worker.exec", "reply"):
            assert count("query", stage) >= 1, stage
        assert count("insert", "worker.exec") >= 1

    def test_slow_log_distills_over_threshold_requests(self):
        async def scenario():
            db = seeded_db()
            async with running_server(db, slow_threshold=0.0) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 1})
                    await client.query("SELECT k FROM r", trace=CLIENT_TRACE)
                    await client.query("CONSUME SELECT k FROM r WHERE v < 99")
                finally:
                    await client.close()
                return server.slow_log, server.metrics.exposition()

        slow_log, exposition = asyncio.run(scenario())
        assert slow_log.total >= 3
        entry = next(
            e for e in slow_log.entries() if e["sql"] == "SELECT k FROM r"
        )
        assert entry["op"] == "query"
        assert entry["principal"] == "anonymous"
        assert entry["duration_s"] > 0
        assert "worker.exec" in entry["stages"]
        assert entry["trace"] == "ab" * 16  # the request carried a trace
        assert entry["verdict"] is None  # plain SELECT: no Tier-B verdict
        consume = next(
            e for e in slow_log.entries() if (e["sql"] or "").startswith("CONSUME")
        )
        assert isinstance(consume["verdict"], str)  # the EXPLAIN CONSUME verdict
        samples = parse_prometheus(exposition)
        assert samples[("repro_server_slow_requests_total", (("op", "query"),))] >= 1

    def test_slow_log_ring_is_bounded(self):
        async def scenario():
            db = seeded_db()
            async with running_server(
                db, slow_threshold=0.0, slow_log_size=4
            ) as server:
                client = await connect(server)
                try:
                    for k in range(10):
                        await client.insert("r", {"k": k, "v": k})
                finally:
                    await client.close()
                return server.slow_log

        slow_log = asyncio.run(scenario())
        assert slow_log.total >= 10
        assert len(slow_log.entries()) == 4


class TestReconciliation:
    """Every duration the server reports is a recorded span's duration."""

    def test_stages_slow_log_and_querystats_are_span_durations(self):
        observed: list[tuple[str, str, float]] = []

        async def scenario():
            db, tracer = _traced_db()
            async with running_server(db, slow_threshold=0.0) as server:
                record_stage = server.metrics.stage

                def stage(op: str, label: str, seconds: float) -> None:
                    observed.append((op, label, seconds))
                    record_stage(op, label, seconds)

                server.metrics.stage = stage
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 1})
                    await client.query("SELECT k FROM r")
                    await client.query("SELECT k FROM r", consistency="snapshot")
                finally:
                    await client.close()
                return db, tracer, server.slow_log

        db, tracer, slow_log = asyncio.run(scenario())
        spans = tracer.to_dicts()
        roots = [s for s in spans if s["name"] == "server.request"]
        ops = [root["attrs"]["op"] for root in roots]
        assert ops == ["hello", "insert", "query", "query", "bye"]

        stage_names = {"frame.decode": "decode"}
        expected = []
        for root in roots:
            for span in spans:
                if span["trace_id"] == root["trace_id"] and span["name"] in (
                    STRONG_STAGES | {"snapshot.read"}
                ):
                    label = stage_names.get(span["name"], span["name"])
                    expected.append((root["attrs"]["op"], label, span["duration"]))
        assert sorted(observed) == sorted(expected)
        assert ("query", "snapshot.read") in {(op, label) for op, label, _ in observed}

        # the slow log (threshold 0: every request) carries root durations
        entries = list(reversed(slow_log.entries()))  # oldest first
        assert [e["op"] for e in entries] == ops
        for entry, root in zip(entries, roots):
            assert entry["duration_s"] == round(root["duration"], 6)

        # querystats seconds is the strong read's `query` span, exactly
        (query_span,) = [
            s for s in spans
            if s["name"] == "query" and s["attrs"]["kind"] == "select"
        ]
        (entry,) = db.querystats.entries()
        assert entry.calls == 1
        assert entry.seconds == query_span["duration"]


class TestSessionsOp:
    def test_sessions_report_per_op_counters(self):
        async def scenario():
            db = seeded_db()
            async with running_server(db) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 1})
                    await client.insert("r", {"k": 2, "v": 2})
                    await client.query("SELECT k FROM r")
                    response = await client.request({"op": "sessions"})
                finally:
                    await client.close()
            return client.session, response["sessions"]

        session_id, sessions = asyncio.run(scenario())
        (mine,) = [s for s in sessions if s["id"] == session_id]
        assert mine["ops"] == {"insert": 2, "query": 1, "sessions": 1}
        assert mine["requests"] == 4
        assert mine["in_flight"] == 0
        assert mine["last_activity"] == 0.0  # logical clock never ticked


class TestCheckpointRestore:
    def test_traces_survive_restore_without_id_collisions(self, tmp_path):
        tracer = Tracer()

        async def serve_once(db, ticks: int):
            async with running_server(db) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": ticks, "v": ticks})
                    if ticks:
                        await client.tick(ticks)
                    await client.query("SELECT k FROM r")
                finally:
                    await client.close()

        db = seeded_db(seed=3)
        db.tracer = tracer
        asyncio.run(serve_once(db, ticks=1))

        save_checkpoint(db, tmp_path)
        restored = load_checkpoint(
            tmp_path, fungi={"r": LinearDecayFungus(rate=0.1)}, tracer=tracer
        )
        asyncio.run(serve_once(restored, ticks=0))

        spans = tracer.to_dicts()
        assert validate_spans(spans) == []  # includes span-id uniqueness
        names = [s["name"] for s in spans]
        assert "checkpoint.save" in names
        assert "checkpoint.restore" in names
        # traced requests on both sides of the restore
        assert names.count("server.request") >= 6
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids))
