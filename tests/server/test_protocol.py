"""Wire-protocol robustness and the auth decision matrix.

The framing contract: any byte sequence thrown at the listener yields
either a structured ``{"ok": false, "code": ...}`` error or a clean
close — never a traceback in the response, never a hung connection.
Hypothesis supplies the garbage; a hard ``asyncio.wait_for`` deadline
on every read is what turns "hung connection" into a test failure
instead of a hung suite.
"""

from __future__ import annotations

import asyncio
import json
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import AuthRegistry, Code, Grant
from repro.server.protocol import (
    MAX_FRAME,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

from tests.server.harness import connect, raw_connection, running_server, seeded_db

DEADLINE = 5.0


async def _exchange_bytes(port: int, blob: bytes) -> dict | None:
    """Send raw bytes, half-close, and read the server's one answer.

    Returns the decoded error frame, or ``None`` if the server chose a
    clean close. Anything else — junk bytes back, no close — raises.
    """
    reader, writer = await raw_connection(port)
    try:
        writer.write(blob)
        await writer.drain()
        writer.write_eof()
        response = await asyncio.wait_for(read_frame(reader), DEADLINE)
        if response is not None:
            assert response["ok"] is False
            assert response["code"]
            assert "Traceback" not in response["error"]
            # and after answering a poisoned stream the server closes
            assert await asyncio.wait_for(reader.read(), DEADLINE) == b""
        return response
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestMalformedFrames:
    """Deterministic probes for each documented refusal."""

    def _roundtrip(self, blob: bytes) -> dict | None:
        async def scenario():
            async with running_server(seeded_db()) as server:
                return await _exchange_bytes(server.port, blob)

        return asyncio.run(scenario())

    def test_oversized_declared_length_is_refused_from_the_header(self):
        response = self._roundtrip(struct.pack(">I", MAX_FRAME + 1))
        assert response is not None and response["code"] == Code.OVERSIZED

    def test_body_that_is_not_json(self):
        body = b"\xff\xfe not json"
        response = self._roundtrip(struct.pack(">I", len(body)) + body)
        assert response is not None and response["code"] == Code.BAD_FRAME

    def test_body_that_is_json_but_not_an_object(self):
        body = b"[1, 2, 3]"
        response = self._roundtrip(struct.pack(">I", len(body)) + body)
        assert response is not None and response["code"] == Code.BAD_FRAME

    def test_disconnect_mid_header(self):
        response = self._roundtrip(b"\x00\x00")
        assert response is not None and response["code"] == Code.BAD_FRAME

    def test_disconnect_mid_body(self):
        response = self._roundtrip(struct.pack(">I", 100) + b'{"op": "ping"')
        assert response is not None and response["code"] == Code.BAD_FRAME

    def test_object_without_an_op(self):
        response = self._roundtrip(encode_frame({"hello": "world"}))
        assert response is not None and response["code"] == Code.BAD_REQUEST

    def test_unknown_op_after_hello(self):
        async def scenario():
            async with running_server(seeded_db()) as server:
                reader, writer = await raw_connection(server.port)
                try:
                    await write_frame(writer, {"op": "hello"})
                    hello = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert hello is not None and hello["ok"]
                    await write_frame(writer, {"op": "sporulate"})
                    response = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert response is not None
                    assert response["code"] == Code.BAD_REQUEST
                    # the connection survives a merely-bad request
                    await write_frame(writer, {"op": "ping"})
                    pong = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert pong is not None and pong["ok"]
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())


class TestFuzzedFrames:
    """Hypothesis garbage: one server, many hostile connections."""

    @settings(max_examples=30, deadline=None)
    @given(blob=st.binary(min_size=0, max_size=64))
    def test_arbitrary_bytes_never_hang_or_traceback(self, blob):
        async def scenario():
            async with running_server(seeded_db()) as server:
                await _exchange_bytes(server.port, blob)

        asyncio.run(scenario())

    @settings(max_examples=30, deadline=None)
    @given(
        payload=st.dictionaries(
            st.sampled_from(["op", "sql", "table", "row", "token", "n", "id"]),
            st.one_of(
                st.none(),
                st.integers(),
                st.text(max_size=20),
                st.lists(st.integers(), max_size=3),
            ),
            max_size=4,
        )
    )
    def test_arbitrary_json_objects_get_structured_answers(self, payload):
        async def scenario():
            async with running_server(seeded_db()) as server:
                reader, writer = await raw_connection(server.port)
                try:
                    await write_frame(writer, payload)
                    response = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert response is not None
                    if not response.get("ok"):
                        assert response["code"]
                        assert "Traceback" not in response["error"]
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())

    # the full ping frame is 17 bytes; every strictly shorter prefix
    # is a truncation
    @settings(max_examples=20, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=16))
    def test_truncated_valid_frame_at_every_offset(self, cut):
        full = encode_frame({"op": "ping"})
        assert cut < len(full)
        blob = full[:cut]

        async def scenario():
            async with running_server(seeded_db()) as server:
                response = await _exchange_bytes(server.port, blob)
                # a cut inside the frame must produce BAD_FRAME; a cut
                # exactly at the header boundary (empty body declared? no —
                # cut < full length always truncates) never parses clean
                if response is not None:
                    assert response["code"] == Code.BAD_FRAME

        asyncio.run(scenario())


class TestCodec:
    def test_roundtrip(self):
        payload = {"op": "query", "sql": "SELECT 1", "id": "x"}
        assert decode_frame(encode_frame(payload)[4:]) == payload

    def test_encode_refuses_oversized_bodies(self):
        with pytest.raises(FrameError) as excinfo:
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})
        assert excinfo.value.code == Code.OVERSIZED

    def test_oversized_response_is_caught_server_side(self):
        """A result too big for one frame is an error, not a dead pipe."""

        async def scenario():
            db = seeded_db()
            blob = "y" * 2048
            for k in range(1024):
                db.insert("r", {"k": k, "v": 1})
            async with running_server(db) as server:
                client = await connect(server)
                try:
                    # the response (1024 rows) fits; this checks big-but-ok
                    response = await client.query("SELECT k FROM r")
                    assert len(response["rows"]) == 1024
                finally:
                    await client.close()

        asyncio.run(scenario())


def _auth_db():
    db = seeded_db(seed=5)
    db.insert("r", {"k": 1, "v": 10})
    return db


def _registry() -> AuthRegistry:
    registry = AuthRegistry()
    registry.issue("t-reader", Grant.of("reader", r="read"))
    registry.issue("t-eater", Grant.of("eater", r="read,insert,consume"))
    registry.issue("t-admin", Grant.of("root", admin=True))
    registry.issue(
        "t-expired", Grant.of("ghost", r="read,consume", expires_at=0.0)
    )
    return registry


class TestAuthMatrix:
    """token × operation → exact structured outcome."""

    CASES = [
        # (token, op payload, expected code or None for ok)
        (None, {"op": "query", "sql": "SELECT k FROM r"}, Code.AUTH_REQUIRED),
        ("t-bogus", {"op": "query", "sql": "SELECT k FROM r"}, Code.AUTH_FAILED),
        ("t-expired", {"op": "query", "sql": "SELECT k FROM r"}, Code.AUTH_EXPIRED),
        ("t-reader", {"op": "query", "sql": "SELECT k FROM r"}, None),
        (
            "t-reader",
            {"op": "query", "sql": "SELECT k FROM r", "consistency": "snapshot"},
            None,
        ),
        (
            "t-reader",
            {"op": "insert", "table": "r", "row": {"k": 9, "v": 9}},
            Code.DENIED,
        ),
        (
            "t-reader",
            {"op": "query", "sql": "CONSUME SELECT k FROM r WHERE v < 5"},
            Code.DENIED,
        ),
        ("t-reader", {"op": "tick"}, Code.DENIED),
        ("t-eater", {"op": "query", "sql": "CONSUME SELECT k FROM r WHERE v < 5"}, None),
        (
            # total consume needs admin, not just consume rights
            "t-eater",
            {"op": "query", "sql": "CONSUME SELECT k FROM r"},
            Code.DENIED,
        ),
        ("t-eater", {"op": "sessions"}, Code.DENIED),
        ("t-admin", {"op": "query", "sql": "CONSUME SELECT k FROM r"}, None),
        ("t-admin", {"op": "tick"}, None),
        ("t-admin", {"op": "sessions"}, None),
        (
            # a bare DELETE wipes the extent: same admin bar as a
            # total consume, not just the per-table consume right
            "t-eater",
            {"op": "query", "sql": "DELETE FROM r"},
            Code.DENIED,
        ),
        ("t-eater", {"op": "query", "sql": "DELETE FROM r WHERE v < 5"}, None),
        # EXPLAIN ANALYZE executes what it wraps, so it needs the wrapped
        # statement's rights and passes its total-extent gate; plain
        # EXPLAIN only describes and stays a read
        (
            "t-reader",
            {"op": "query", "sql": "EXPLAIN ANALYZE CONSUME SELECT k FROM r WHERE v < 5"},
            Code.DENIED,
        ),
        (
            "t-reader",
            {"op": "query", "sql": "EXPLAIN ANALYZE DELETE FROM r WHERE v < 5"},
            Code.DENIED,
        ),
        ("t-eater", {"op": "query", "sql": "EXPLAIN ANALYZE DELETE FROM r"}, Code.DENIED),
        ("t-reader", {"op": "query", "sql": "EXPLAIN DELETE FROM r WHERE v < 5"}, None),
        ("t-reader", {"op": "query", "sql": "EXPLAIN CONSUME SELECT k FROM r"}, None),
        ("t-admin", {"op": "query", "sql": "DELETE FROM r"}, None),
        # stats exposes every statement shape the server has run, so it
        # sits behind the same admin bar as the session table
        ("t-reader", {"op": "stats"}, Code.DENIED),
        ("t-eater", {"op": "stats"}, Code.DENIED),
        ("t-admin", {"op": "stats"}, None),
    ]

    def test_matrix(self):
        async def scenario():
            for token, payload, expected in self.CASES:
                async with running_server(_auth_db(), auth=_registry()) as server:
                    reader, writer = await raw_connection(server.port)
                    try:
                        hello: dict = {"op": "hello"}
                        if token is not None:
                            hello["token"] = token
                        await write_frame(writer, hello)
                        response = await asyncio.wait_for(
                            read_frame(reader), DEADLINE
                        )
                        assert response is not None
                        if response["ok"]:
                            await write_frame(writer, payload)
                            response = await asyncio.wait_for(
                                read_frame(reader), DEADLINE
                            )
                            assert response is not None
                        if expected is None:
                            assert response["ok"], (token, payload, response)
                        else:
                            assert response["ok"] is False, (token, payload)
                            assert response["code"] == expected, (
                                token,
                                payload,
                                response,
                            )
                    finally:
                        writer.close()
                        await writer.wait_closed()

        asyncio.run(scenario())

    def test_expiry_is_checked_at_use_time_not_hello(self):
        """A token that dies mid-session loses rights on the next frame."""

        async def scenario():
            registry = AuthRegistry()
            registry.issue(
                "t-brief", Grant.of("brief", r="read", admin=False, expires_at=2.0)
            )
            registry.issue("t-admin", Grant.of("root", admin=True))
            async with running_server(_auth_db(), auth=registry) as server:
                client = await connect(server, token="t-brief")
                admin = await connect(server, token="t-admin")
                try:
                    ok_response = await client.query("SELECT k FROM r")
                    assert ok_response["ok"]
                    await admin.tick(2)  # clock reaches the expiry tick
                    raw = await client.request_raw(
                        {"op": "query", "sql": "SELECT k FROM r"}
                    )
                    assert raw["ok"] is False
                    assert raw["code"] == Code.AUTH_EXPIRED
                finally:
                    await client.close()
                    await admin.close()

        asyncio.run(scenario())

    def test_denied_consume_leaves_no_trace_in_the_engine(self):
        """Plan-time refusal means refusal *before* execution."""

        async def scenario():
            db = _auth_db()
            async with running_server(db, auth=_registry()) as server:
                client = await connect(server, token="t-reader")
                try:
                    raw = await client.request_raw(
                        {"op": "query", "sql": "CONSUME SELECT k FROM r WHERE v < 99"}
                    )
                    assert raw["code"] == Code.DENIED
                finally:
                    await client.close()
                assert len(db.tables["r"]) == 1  # the row is still there
                assert all(entry[0] != "query" for entry in server.oplog)

        asyncio.run(scenario())

    def test_invalid_consume_is_refused_by_the_analyzer(self):
        """The Tier-B gate: an unsatisfiable consume never executes."""

        async def scenario():
            db = _auth_db()
            async with running_server(db, auth=_registry()) as server:
                client = await connect(server, token="t-eater")
                try:
                    raw = await client.request_raw(
                        {
                            "op": "query",
                            # type mismatch parses and plans fine, so
                            # only the Tier-B analyzer can convict it
                            "sql": "CONSUME SELECT k FROM r WHERE v > 'ten'",
                        }
                    )
                    assert raw["ok"] is False
                    assert raw["code"] == Code.QUERY_ERROR
                    assert "analyzer refused" in raw["error"]
                finally:
                    await client.close()

        asyncio.run(scenario())


class TestTotalDeleteGate:
    """DELETE is held to the total-extent bar, same as CONSUME."""

    def test_bare_delete_is_refused_before_execution(self):
        async def scenario():
            db = _auth_db()
            async with running_server(db, auth=_registry()) as server:
                client = await connect(server, token="t-eater")
                try:
                    raw = await client.request_raw(
                        {"op": "query", "sql": "DELETE FROM r"}
                    )
                    assert raw["ok"] is False
                    assert raw["code"] == Code.DENIED
                    assert "admin grant" in raw["error"]
                finally:
                    await client.close()
                assert len(db.tables["r"]) == 1  # nothing was deleted
                assert all(entry[0] != "query" for entry in server.oplog)

        asyncio.run(scenario())

    def test_tautological_where_is_still_total(self):
        """f ∈ [0, 1] is an invariant, so ``f >= 0.0`` matches every row.

        The classifier, not just the missing WHERE clause, is what
        convicts a delete — a tautology disguised as a restriction gets
        the same refusal as the bare statement.
        """

        async def scenario():
            db = _auth_db()
            async with running_server(db, auth=_registry()) as server:
                client = await connect(server, token="t-eater")
                try:
                    raw = await client.request_raw(
                        {"op": "query", "sql": "DELETE FROM r WHERE f >= 0.0"}
                    )
                    assert raw["ok"] is False
                    assert raw["code"] == Code.DENIED
                finally:
                    await client.close()
                assert len(db.tables["r"]) == 1

        asyncio.run(scenario())

    def test_partial_delete_needs_only_consume_rights(self):
        async def scenario():
            db = _auth_db()
            async with running_server(db, auth=_registry()) as server:
                client = await connect(server, token="t-eater")
                try:
                    response = await client.query("DELETE FROM r WHERE v = 10")
                    assert response["ok"]
                finally:
                    await client.close()
                assert len(db.tables["r"]) == 0

        asyncio.run(scenario())

    def test_admin_may_run_a_total_delete(self):
        async def scenario():
            db = _auth_db()
            async with running_server(db, auth=_registry()) as server:
                client = await connect(server, token="t-admin")
                try:
                    response = await client.query("DELETE FROM r")
                    assert response["ok"]
                finally:
                    await client.close()
                assert len(db.tables["r"]) == 0

        asyncio.run(scenario())


class TestOversizedResponse:
    """A result too big for max_frame yields OVERSIZED, not a dead pipe."""

    def test_structured_error_and_surviving_connection(self):
        async def scenario():
            db = seeded_db()
            for k in range(600):
                db.insert("r", {"k": k, "v": k})
            async with running_server(db, max_frame=2048) as server:
                client = await connect(server)
                try:
                    raw = await client.request_raw(
                        {"op": "query", "sql": "SELECT k, v FROM r"}
                    )
                    assert raw["ok"] is False
                    assert raw["code"] == Code.OVERSIZED
                    assert "Traceback" not in raw["error"]
                    # the connection survives the oversized answer
                    pong = await client.request({"op": "ping"})
                    assert pong["ok"]
                finally:
                    await client.close()

        asyncio.run(scenario())


def _rows_db():
    db = seeded_db()
    db.insert_many("r", [{"k": k, "v": k} for k in range(600)])
    db.enable_forensics()
    db.enable_querystats()
    return db


def _state(db):
    """Everything a consume would change; the gate's own Tier-B
    analysis is published before the statement runs, so its
    ``ConsumeAnalyzed`` count is left out."""
    counts = {k: v for k, v in db.bus.counts.items() if k != "ConsumeAnalyzed"}
    return (
        db.tables["r"].rows(),
        len(db.summaries("r")),
        len(db.forensics.deaths("r")),
        db.querystats.describe(),
        counts,
    )


def _ask(db, payload, **config):
    async def scenario():
        async with running_server(db, **config) as server:
            client = await connect(server)
            try:
                return await client.request_raw(payload)
            finally:
                await client.close()

    return asyncio.run(scenario())


class TestOversizedConsume:
    """A CONSUME whose reply cannot be framed eats nothing."""

    SQL = "CONSUME SELECT k, v FROM r WHERE k < 500"

    def test_an_oversized_consume_changes_nothing(self):
        db = _rows_db()
        before = _state(db)
        raw = _ask(db, {"op": "query", "sql": self.SQL}, max_frame=2048)
        assert raw["ok"] is False and raw["code"] == Code.OVERSIZED
        assert _state(db) == before
        assert len(db.tables["r"]) == 600

    def test_an_answer_of_exactly_max_frame_is_served(self):
        payload = {"op": "query", "sql": self.SQL, "id": 7}
        reply = _ask(_rows_db(), payload)
        size = len(json.dumps(reply, separators=(",", ":")).encode("utf-8"))
        # a byte short is refused whole; exactly the size is served
        short = _rows_db()
        assert _ask(short, payload, max_frame=size - 1)["code"] == Code.OVERSIZED
        assert len(short.tables["r"]) == 600
        db = _rows_db()
        assert _ask(db, payload, max_frame=size) == reply
        assert reply["consumed"] == 500 and len(db.tables["r"]) == 100

    def test_an_oversized_explain_analyze_consume_eats_nothing(self):
        db = _rows_db()
        before = _state(db)
        sql = "EXPLAIN ANALYZE " + self.SQL
        raw = _ask(db, {"op": "query", "sql": sql}, max_frame=256)
        assert raw["ok"] is False and raw["code"] == Code.OVERSIZED
        assert _state(db) == before
        served = _ask(db, {"op": "query", "sql": sql})
        assert served["ok"] and served["consumed"] == 500
        assert len(db.tables["r"]) == 100


def _at_widest(reply):
    """``reply`` with every wall time printed as the answer check sizes
    it before the delete runs: at the executor's widest, 1e6 s."""
    widest = json.loads(json.dumps(reply))
    for row in widest["rows"]:
        row[0] = re.sub(r"(\| |; )\d+\.\d{3} ms$", r"\g<1>1000000000.000 ms", row[0])
    return widest


class TestOversizedExplainDelete:
    """An EXPLAIN ANALYZE DELETE whose plan cannot be framed deletes nothing."""

    SQL = "EXPLAIN ANALYZE DELETE FROM r WHERE k < 500"

    def test_an_oversized_plan_deletes_nothing(self):
        db = _rows_db()
        before = _state(db)
        raw = _ask(db, {"op": "query", "sql": self.SQL}, max_frame=256)
        assert raw["ok"] is False and raw["code"] == Code.OVERSIZED
        assert _state(db) == before
        assert len(db.tables["r"]) == 600

    def test_a_plan_of_exactly_max_frame_is_served(self):
        payload = {"op": "query", "sql": self.SQL, "id": 7}
        reply = _ask(_rows_db(), payload)
        widest = _at_widest(reply)
        size = len(json.dumps(widest, separators=(",", ":")).encode("utf-8"))
        # a byte short is refused whole; exactly the size is served
        short = _rows_db()
        assert _ask(short, payload, max_frame=size - 1)["code"] == Code.OVERSIZED
        assert len(short.tables["r"]) == 600
        db = _rows_db()
        served = _ask(db, payload, max_frame=size)
        assert served["ok"] and _at_widest(served) == widest
        assert len(db.tables["r"]) == 100

    def test_a_plain_delete_is_not_sized(self):
        db = _rows_db()
        payload = {"op": "query", "sql": "DELETE FROM r WHERE k < 500"}
        raw = _ask(db, payload, max_frame=256)
        assert raw["ok"] and raw["rows"] == [[500]]
        assert len(db.tables["r"]) == 100


class TestRehello:
    """A second hello replaces the session instead of leaking the first."""

    def test_second_hello_closes_the_first_session(self):
        async def scenario():
            async with running_server(seeded_db()) as server:
                reader, writer = await raw_connection(server.port)
                try:
                    await write_frame(writer, {"op": "hello"})
                    first = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert first is not None and first["ok"]
                    await write_frame(writer, {"op": "hello"})
                    second = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert second is not None and second["ok"]
                    assert second["session"] != first["session"]
                    assert server.sessions.active == 1
                    live = [s["id"] for s in server.sessions.describe()]
                    assert live == [second["session"]]
                finally:
                    writer.close()
                    await writer.wait_closed()
                for _ in range(200):  # the close path reaps the survivor
                    if server.sessions.active == 0:
                        break
                    await asyncio.sleep(0.01)
                assert server.sessions.active == 0

        asyncio.run(scenario())

    def test_failed_rehello_keeps_the_old_session(self):
        async def scenario():
            async with running_server(_auth_db(), auth=_registry()) as server:
                reader, writer = await raw_connection(server.port)
                try:
                    await write_frame(writer, {"op": "hello", "token": "t-reader"})
                    first = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert first is not None and first["ok"]
                    await write_frame(writer, {"op": "hello", "token": "t-wrong"})
                    second = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert second is not None and second["ok"] is False
                    assert second["code"] == Code.AUTH_FAILED
                    assert server.sessions.active == 1
                    # and the original session still answers
                    await write_frame(
                        writer, {"op": "query", "sql": "SELECT k FROM r"}
                    )
                    answer = await asyncio.wait_for(read_frame(reader), DEADLINE)
                    assert answer is not None and answer["ok"]
                finally:
                    writer.close()
                    await writer.wait_closed()

        asyncio.run(scenario())


class TestGrantSpecParsing:
    """--grant right names are validated at startup, not at use time."""

    def test_typoed_right_fails_at_startup(self):
        from repro.serve import _parse_grant

        with pytest.raises(SystemExit) as excinfo:
            _parse_grant("tok:ana:orders=raed+consume")
        assert "raed" in str(excinfo.value)

    def test_valid_spec_round_trips(self):
        from repro.serve import _parse_grant

        token, grant = _parse_grant("tok:ana:orders=read+consume:admin:expires=9")
        assert token == "tok"
        assert grant.principal == "ana"
        assert grant.rights["orders"] == frozenset({"read", "consume"})
        assert grant.admin
        assert grant.expires_at == 9.0
