""":class:`FungusServer`: the asyncio front-end over one FungusDB.

Ownership rules, stated once and enforced everywhere:

* The **event loop** owns connections, framing, auth, admission, the
  session table, the metrics registry, and reads against the published
  :class:`~repro.server.snapshot.TickSnapshot`.
* The **worker thread** (a one-thread executor) owns the engine. Every
  strong operation — INSERT, strong SELECT, CONSUME, tick — is a job
  on that thread, so engine state keeps the single-writer discipline
  the storage layer documents. The gatekeeper also runs *inside* the
  job, immediately before execution, so policy is checked against the
  exact catalog state the statement will run on.
* The snapshot — dense column copies of every table behind their own
  query engine — crosses from worker to loop by a single attribute
  assignment, atomic under the interpreter, and is immutable after
  publication. Snapshot and strong reads run the same executor; only
  the tables it is pointed at differ.

Each connection's frames are handled strictly sequentially, which is
the per-client response-ordering guarantee the concurrency suite
asserts; throughput comes from many connections, not from pipelining
within one.

The worker also appends every strong operation to ``oplog`` in actual
execution order. Replaying that log single-threaded into a fresh
FungusDB with the same seed must reproduce the server's final state
bit-for-bit — the differential oracle the concurrency tests run.

Every frame is also an observability unit. The loop opens a detached
``server.request`` root span per frame (continuing the client's trace
when the payload carries a valid ``trace`` field), times each stage
into both child spans and the ``repro_server_stage_seconds``
histogram, and distills over-threshold requests into the bounded
slow-query log that ``/debug/slow`` serves. Stage timing always runs;
span recording costs nothing unless ``db.tracer`` is enabled.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.errors import FungusError
from repro.obs.tracing import TraceContext
from repro.server.admission import AdmissionController
from repro.server.auth import AuthError, AuthRegistry, Grant
from repro.server.metrics import ServerMetrics
from repro.server.ops import OpsServer, SlowQueryLog
from repro.server.policy import AccessDenied, Gatekeeper
from repro.server.protocol import (
    Code,
    FrameError,
    MAX_FRAME,
    decode_frame,
    error,
    ok,
    read_frame_body,
    write_frame,
)
from repro.server.session import Session, SessionManager
from repro.server.snapshot import TickSnapshot

if TYPE_CHECKING:
    from repro.core.db import FungusDB


@dataclass
class ServerConfig:
    """Tunables for one :class:`FungusServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the kernel pick (tests); real deploys set one
    queue_limit: int = 64
    tick_interval: float | None = None  # seconds between background ticks
    max_frame: int = MAX_FRAME
    auth: AuthRegistry | None = None
    #: enable the ``debug_sleep`` op — tests use it to hold the worker
    #: busy and deterministically fill the admission queue
    debug_ops: bool = False
    #: bind the HTTP ops listener here (None = no ops plane; 0 = any port)
    ops_port: int | None = None
    #: requests running at least this long land in the slow-query log
    slow_threshold: float = 0.25
    slow_log_size: int = 128


#: ops that require the admin grant ("stats" exposes whole-database
#: shape plus per-statement fingerprints — operator-only information)
ADMIN_OPS = frozenset({"tick", "drain", "sessions", "stats"})

#: histogram stage label → span name, where they differ (the span keeps
#: its ``frame.`` prefix in the engine-wide taxonomy)
_SPAN_NAMES = {"decode": "frame.decode"}


class _Request:
    """Loop-side context for one in-flight frame.

    Carries the request root span, the wall-clock start, the per-stage
    latency ledger, and what the slow-query log will want if this
    request runs long. Stage values are written by whichever side runs
    the stage (loop or worker) but only *read* on the loop after the
    response is written, so no stage entry is ever raced.
    """

    __slots__ = ("span", "started", "op", "sql", "verdict", "trace", "stages")

    def __init__(self, span: Any, started: float) -> None:
        self.span = span
        self.started = started
        self.op = "?"
        self.sql: str | None = None
        self.verdict: str | None = None
        self.trace: str | None = None
        self.stages: dict[str, float] = {}


class FungusServer:
    """Serve one :class:`~repro.core.db.FungusDB` over TCP frames."""

    def __init__(self, db: "FungusDB", config: ServerConfig | None = None) -> None:
        self.db = db
        self.config = config or ServerConfig()
        self.sessions = SessionManager()
        self.admission = AdmissionController(self.config.queue_limit)
        self.metrics = ServerMetrics()
        self.gatekeeper = Gatekeeper(db.engine)
        #: every strong op in worker execution order: ("insert", table,
        #: row) | ("query", sql) | ("tick", n) — the replay oracle's input
        self.oplog: list[tuple[Any, ...]] = []
        self.snapshot: TickSnapshot | None = None
        self.slow_log = SlowQueryLog(
            self.config.slow_threshold, self.config.slow_log_size
        )
        self._worker = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="fungus-engine"
        )
        self._server: asyncio.AbstractServer | None = None
        self._ops: OpsServer | None = None
        self._ticker: asyncio.Task[None] | None = None
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "FungusServer":
        """Bind, publish the initial snapshot, start the background ticker."""
        # every served statement lands in the fingerprint store, so the
        # admin `stats` op and /debug/queries have something to show
        self.db.enable_querystats()

        def boot() -> TickSnapshot:
            # from here on every strong op runs on this worker thread;
            # an armed race probe must treat it as the database's owner
            # even if the caller seeded tables on the main thread first
            if self.db.race_probe is not None:
                self.db.race_probe.bind()
            return TickSnapshot.capture(self.db)

        self.snapshot = await self._run_strong(boot)
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            backlog=2048,  # room for 1k+ clients connecting in one burst
        )
        if self.config.ops_port is not None:
            self._ops = OpsServer(self, self.config.host, self.config.ops_port)
            await self._ops.start()
        if self.config.tick_interval is not None:
            self._ticker = asyncio.ensure_future(self._tick_loop())
        return self

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def ops_port(self) -> int:
        assert self._ops is not None, "ops listener not configured"
        return self._ops.port

    @property
    def accepting(self) -> bool:
        """Ready for traffic: not stopping and no drain in progress."""
        return not self._stopping and not self.admission.draining

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        await self._server.serve_forever()

    async def drain(self) -> int:
        """Refuse new strong ops, wait for admitted ones, return count drained."""
        self.admission.start_drain()
        drained = self.admission.in_flight
        while not self.admission.idle:
            await asyncio.sleep(0.005)
        return drained

    async def stop(self) -> None:
        """Stop ticking, close the listener, finish in-flight work."""
        self._stopping = True
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._ops is not None:
            await self._ops.stop()
            self._ops = None
        while not self.admission.idle:
            await asyncio.sleep(0.005)
        self._worker.shutdown(wait=True)

    # ------------------------------------------------------------------
    # the background Law-1 ticker
    # ------------------------------------------------------------------

    async def _tick_loop(self) -> None:
        assert self.config.tick_interval is not None
        interval = self.config.tick_interval
        while True:
            before = time.perf_counter()
            await asyncio.sleep(interval)
            await self._run_tick(1)
            # lag = everything past the nominal interval: sleep
            # overshoot under loop pressure plus the tick's own worker
            # time (which queues behind in-flight strong ops)
            self.metrics.ticker_lag.set(
                max(0.0, time.perf_counter() - before - interval)
            )

    async def _run_tick(self, ticks: int) -> float:
        """Advance the clock in the worker and publish the new snapshot.

        Submitted *outside* admission control on purpose: decay is the
        server's metabolism, and a saturated client queue must not be
        able to starve Law 1.
        """
        def job() -> float:
            self.db.tick(ticks)
            self.oplog.append(("tick", ticks))
            self.snapshot = TickSnapshot.capture(self.db)
            return self.db.clock.now

        now = await self._run_strong(job)
        self.metrics.ticks.inc(ticks)
        return now

    async def _run_strong(self, fn: Callable[[], Any]) -> Any:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._worker, fn)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections.inc()
        session: Session | None = None
        try:
            while True:
                try:
                    body = await read_frame_body(reader, self.config.max_frame)
                except FrameError as exc:
                    # a mid-frame failure poisons the stream: answer
                    # once (best effort) and close
                    await self._safe_write(
                        writer, error(exc.code, exc.message)
                    )
                    self.metrics.request("frame", exc.code)
                    return
                if body is None:
                    return  # clean close between frames
                session, keep_open = await self._handle_frame(
                    body, session, writer
                )
                if not keep_open:
                    return
        finally:
            if session is not None:
                self.sessions.close(session)
                self.metrics.sessions_active.set(self.sessions.active)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_frame(
        self,
        body: bytes,
        session: Session | None,
        writer: asyncio.StreamWriter,
    ) -> tuple[Session | None, bool]:
        """One frame, instrumented end-to-end under a request root span.

        The root is detached (never on the tracer stack), so any number
        of connections can hold one open concurrently. It closes when
        the ``with`` exits — after the reply is flushed — which is what
        makes every stage span nest inside it.
        """
        with self.db.tracer.root_span("server.request") as root:
            req = _Request(root, time.perf_counter())
            try:
                with self._stage(req, "decode"):
                    payload = decode_frame(body)
            except FrameError as exc:
                # decode failures poison the stream, same as framing
                # failures: answer once and close
                req.op = "frame"
                self.metrics.request("frame", exc.code)
                await self._reply(writer, req, error(exc.code, exc.message))
                self._finish_request(req, session, exc.code)
                return session, False
            context = TraceContext.parse(payload.get("trace"))
            if context is not None:
                # continue the client's trace by annotation: the root
                # stays a local root, the W3C ids ride as attributes
                req.trace = context.trace_id
                root.set(trace=context.trace_id, remote_parent=context.span_id)
            response, session, keep_open = await self._dispatch(
                payload, session, writer, req
            )
            if "id" in payload:
                response["id"] = payload["id"]
            await self._reply(writer, req, response)
            status = "ok" if response.get("ok") else str(response.get("code", "?"))
            self._finish_request(req, session, status)
        return session, keep_open

    @contextlib.contextmanager
    def _stage(self, req: _Request, label: str) -> Iterator[Any]:
        """Time one request stage into ``req.stages`` and a child span."""
        started = time.perf_counter()
        with self.db.tracer.stage_span(
            _SPAN_NAMES.get(label, label), req.span
        ) as span:
            try:
                yield span
            finally:
                req.stages[label] = (
                    req.stages.get(label, 0.0) + time.perf_counter() - started
                )

    async def _reply(
        self, writer: asyncio.StreamWriter, req: _Request, response: dict[str, Any]
    ) -> None:
        with self._stage(req, "reply"):
            await self._safe_write(writer, response)

    def _finish_request(
        self, req: _Request, session: Session | None, status: str
    ) -> None:
        """Fold one finished request into histograms and the slow log."""
        duration = time.perf_counter() - req.started
        for label, seconds in req.stages.items():
            self.metrics.stage(req.op, label, seconds)
        req.span.set(op=req.op, status=status)
        if session is not None:
            req.span.set(session=session.id)
        if duration >= self.slow_log.threshold:
            self.metrics.slow_requests.labels(op=req.op).inc()
            self.slow_log.record(
                op=req.op,
                duration_s=duration,
                session=session.id if session is not None else "?",
                principal=session.principal if session is not None else "?",
                sql=req.sql,
                stages=req.stages,
                verdict=req.verdict,
                trace=req.trace,
                tick=self.db.clock.now,
            )

    async def _safe_write(
        self, writer: asyncio.StreamWriter, payload: dict[str, Any]
    ) -> None:
        try:
            await write_frame(writer, payload, self.config.max_frame)
        except FrameError as exc:
            # the response itself won't frame (a strong SELECT whose
            # result outgrows max_frame): the connection still gets a
            # structured error, never an escaped exception
            self.metrics.request("write", exc.code)
            fallback = error(exc.code, exc.message)
            if "id" in payload:
                fallback["id"] = payload["id"]
            try:
                await write_frame(writer, fallback, self.config.max_frame)
            except (FrameError, ConnectionError, OSError):
                pass
        except (ConnectionError, OSError):
            pass  # peer already gone; the close path cleans up

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    async def _dispatch(
        self,
        payload: dict[str, Any],
        session: Session | None,
        writer: asyncio.StreamWriter,
        req: _Request,
    ) -> tuple[dict[str, Any], Session | None, bool]:
        """Handle one frame; returns (response, session, keep_open)."""
        op = payload.get("op")
        if not isinstance(op, str):
            self.metrics.request("?", Code.BAD_REQUEST)
            return error(Code.BAD_REQUEST, "frame needs a string 'op'"), session, True
        req.op = op
        try:
            if op == "hello":
                response, session = self._op_hello(payload, session, writer)
            elif op == "ping":
                response = ok(pong=True, tick=self.db.clock.now)
            elif op == "bye":
                self.metrics.request(op, "ok")
                return ok(bye=True), session, False
            else:
                if session is None:
                    raise AuthError(Code.AUTH_REQUIRED, "say hello first")
                if session.grant.expired(self.db.clock.now):
                    raise AuthError(
                        Code.AUTH_EXPIRED,
                        f"token for {session.principal!r} expired at tick "
                        f"{session.grant.expires_at:g}",
                    )
                if op in ADMIN_OPS and not session.grant.admin:
                    raise AccessDenied(
                        Code.DENIED, f"op {op!r} requires the admin grant"
                    )
                session.note(op, self.db.clock.now)
                response = await self._op(op, payload, session, req)
        except (AuthError, AccessDenied, FrameError) as exc:
            if session is not None:
                session.errors += 1
            self.metrics.request(op, exc.code)
            return error(exc.code, exc.message), session, True
        except FungusError as exc:
            if session is not None:
                session.errors += 1
            self.metrics.request(op, Code.QUERY_ERROR)
            return error(Code.QUERY_ERROR, str(exc)), session, True
        except Exception as exc:  # the contract: never a raw traceback
            if session is not None:
                session.errors += 1
            self.metrics.request(op, Code.INTERNAL)
            return (
                error(Code.INTERNAL, f"{type(exc).__name__}: {exc}"),
                session,
                True,
            )
        self.metrics.request(op, "ok")
        return response, session, True

    def _op_hello(
        self,
        payload: dict[str, Any],
        previous: Session | None,
        writer: asyncio.StreamWriter,
    ) -> tuple[dict[str, Any], Session]:
        token = payload.get("token")
        if token is not None and not isinstance(token, str):
            raise AuthError(Code.AUTH_FAILED, "token must be a string")
        now = self.db.clock.now
        if self.config.auth is not None:
            grant = self.config.auth.authenticate(token, now)
        else:
            grant = Grant.open_grant()
        if previous is not None:
            # a re-hello replaces the session; close the old one only
            # after the new token authenticates, so a failed re-auth
            # leaves the caller in the session it already had
            self.sessions.close(previous)
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        session = self.sessions.open(grant, peer, now)
        self.metrics.sessions_active.set(self.sessions.active)
        return (
            ok(session=session.id, principal=grant.principal, tick=now),
            session,
        )

    async def _op(
        self, op: str, payload: dict[str, Any], session: Session, req: _Request
    ) -> dict[str, Any]:
        if op == "query":
            return await self._op_query(payload, session, req)
        if op == "insert":
            return await self._op_insert(payload, session, req)
        if op == "tick":
            ticks = payload.get("n", 1)
            if not isinstance(ticks, int) or ticks < 1:
                raise FrameError(Code.BAD_REQUEST, f"bad tick count {ticks!r}")
            now = await self._run_tick(ticks)
            return ok(tick=now)
        if op == "stats":
            return await self._admitted(session, self._job_stats(session), req)
        if op == "metrics":
            return ok(exposition=self.metrics.exposition())
        if op == "sessions":
            return ok(sessions=self.sessions.describe())
        if op == "drain":
            drained = await self.drain()
            return ok(drained=drained)
        if op == "debug_sleep" and self.config.debug_ops:
            seconds = float(payload.get("seconds", 0.05))
            return await self._admitted(session, lambda: _worker_nap(seconds), req)
        raise FrameError(Code.BAD_REQUEST, f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # the two data-path ops
    # ------------------------------------------------------------------

    async def _op_query(
        self, payload: dict[str, Any], session: Session, req: _Request
    ) -> dict[str, Any]:
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise FrameError(Code.BAD_REQUEST, "query needs a non-empty 'sql'")
        req.sql = sql
        consistency = payload.get("consistency", "strong")
        if consistency == "snapshot":
            return self._snapshot_query(sql, session, req)
        if consistency != "strong":
            raise FrameError(
                Code.BAD_REQUEST, f"unknown consistency {consistency!r}"
            )
        return await self._admitted(session, self._job_query(sql, session, req), req)

    def _snapshot_query(
        self, sql: str, session: Session, req: _Request
    ) -> dict[str, Any]:
        """Serve a read from the published snapshot, loop-side.

        Never touches the worker, so it answers even while a decay tick
        (or a long consume) is mid-flight — the "readers never block"
        half of snapshot-at-tick. Policy and execution both go through
        the snapshot's own engine, the same executor strong reads use.
        """
        snapshot = self.snapshot
        assert snapshot is not None, "server not started"
        with self._stage(req, "policy.analyze"):
            gatekeeper = Gatekeeper(snapshot.engine)
            admission = gatekeeper.admit(sql, session.grant)
            if admission.kind != "select":
                raise AccessDenied(
                    Code.BAD_REQUEST,
                    f"snapshot consistency serves SELECT only, not {admission.kind}",
                )
        req.verdict = admission.verdict
        with self._stage(req, "snapshot.read") as span:
            result = snapshot.query(admission.statement, sql)
            span.set(tick=snapshot.tick, snapshot_rows=snapshot.rows)
        self.metrics.snapshot_reads.inc()
        return ok(
            columns=list(result.columns),
            rows=[list(row) for row in result.rows],
            tick=snapshot.tick,
            consistency="snapshot",
        )

    def _job_query(
        self, sql: str, session: Session, req: _Request
    ) -> Callable[[], dict[str, Any]]:
        def job() -> dict[str, Any]:
            # worker side: the stack holds the worker.exec anchor the
            # admission wrapper pushed, so this span — and the engine's
            # own query/consume spans under db.query — nest beneath it
            analyze_started = time.perf_counter()
            with self.db.tracer.span("policy.analyze"):
                admission = self.gatekeeper.admit(sql, session.grant)
            req.stages["policy.analyze"] = time.perf_counter() - analyze_started
            req.verdict = admission.verdict
            engine = self.db.engine
            engine.current_actor = _actor(session, req)
            try:
                # execute the raw SQL, not the parsed statement:
                # current_sql must carry the text so Law-2 death
                # provenance records the consuming query verbatim
                result = self.db.query(sql)
            finally:
                engine.current_actor = None
            self.oplog.append(("query", sql))
            session.rows_consumed += result.stats.rows_consumed
            return ok(
                columns=list(result.columns),
                rows=[list(row) for row in result.rows],
                consumed=result.stats.rows_consumed,
                tick=self.db.clock.now,
                consistency="strong",
                verdict=admission.verdict,
            )

        return job

    def _op_insert_check(self, payload: dict[str, Any]) -> tuple[str, dict[str, Any]]:
        table = payload.get("table")
        row = payload.get("row")
        if not isinstance(table, str) or not isinstance(row, dict):
            raise FrameError(
                Code.BAD_REQUEST, "insert needs 'table' (str) and 'row' (object)"
            )
        return table, row

    async def _op_insert(
        self, payload: dict[str, Any], session: Session, req: _Request
    ) -> dict[str, Any]:
        table, row = self._op_insert_check(payload)
        with self._stage(req, "policy.analyze"):
            if not session.grant.allows(table, "insert"):
                raise AccessDenied(
                    Code.DENIED,
                    f"{session.principal!r} lacks 'insert' on table {table!r}",
                )

        def job() -> dict[str, Any]:
            rid = self.db.insert(table, row)
            self.oplog.append(("insert", table, dict(row)))
            return ok(rid=rid, tick=self.db.clock.now)

        return await self._admitted(session, job, req)

    def _job_stats(self, session: Session) -> Callable[[], dict[str, Any]]:
        def job() -> dict[str, Any]:
            stats = self.db.stats()
            querystats = self.db.querystats
            if querystats is not None:
                stats["querystats"] = querystats.describe()
            return ok(stats=stats)

        return job

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    async def _admitted(
        self, session: Session, job: Callable[[], dict[str, Any]], req: _Request
    ) -> dict[str, Any]:
        """Run one strong op through admission control.

        The refusals happen *here*, on the loop, before the job ever
        reaches the worker — which is why BUSY comes back in
        microseconds even when the worker is pinned.

        The admitted path is also where two cross-thread stages are
        measured: ``admission.wait`` spans enqueue (here, on the loop)
        to worker pickup (the first statement of the wrapped job), and
        ``worker.exec`` anchors onto the tracer stack so the engine's
        own spans nest inside the request.
        """
        if self.admission.draining:
            self.metrics.reject("draining")
            raise AccessDenied(Code.DRAINING, "server is draining; retry elsewhere")
        if not self.admission.try_admit():
            self.metrics.reject("busy")
            raise AccessDenied(
                Code.BUSY,
                f"admission queue full ({self.admission.limit} in flight); retry",
            )
        session.in_flight += 1
        depth = self.admission.in_flight
        self.metrics.queue_depth.set(depth)
        tracer = self.db.tracer
        enqueued_pc = time.perf_counter()
        enqueued_at = tracer.now()

        def admitted_job() -> dict[str, Any]:
            # first statement on the worker: the queue wait is over
            req.stages["admission.wait"] = time.perf_counter() - enqueued_pc
            tracer.record_span(
                "admission.wait", req.span, enqueued_at, tracer.now(), depth=depth
            )
            exec_started = time.perf_counter()
            with tracer.anchor_span("worker.exec", req.span, op=req.op):
                try:
                    return job()
                finally:
                    req.stages["worker.exec"] = time.perf_counter() - exec_started

        try:
            return await self._run_strong(admitted_job)
        finally:
            session.in_flight -= 1
            self.admission.release()
            self.metrics.queue_depth.set(self.admission.in_flight)


def _actor(session: Session, req: _Request) -> str:
    """The forensics attribution string for one strong statement.

    Death-provenance records tag consumed rows ``@<actor>``; when the
    request carried a client trace, the trace-id rides along so a rot
    investigation can jump straight from a dead row to the exact
    distributed trace that killed it.
    """
    if req.trace is None:
        return session.id
    return f"{session.id}#{req.trace}"


def _worker_nap(seconds: float) -> dict[str, Any]:
    """Hold the engine worker busy (test hook; runs in the worker thread)."""
    time.sleep(min(seconds, 2.0))
    return ok(slept=seconds)
