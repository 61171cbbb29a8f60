"""Span tracing with parent/child links and a JSONL exporter.

A :class:`Tracer` hands out :class:`Span` context managers; nesting is
tracked on an explicit stack (the embedded engine is single-threaded
by design), so a ``tick`` span opened by :meth:`FungusDB.tick` becomes
the parent of the ``clock.advance`` and ``policy.cycle`` spans opened
inside it. Span ids are sequential per tracer (allocated off an atomic
counter, so the server's loop + worker threads never collide), which
keeps traces deterministic and diffable across runs.

The server adds a second parentage mode: **explicit-parent spans**.
A request crosses the event loop and the engine worker, where stack
discipline cannot hold, so the request root (:meth:`Tracer.root_span`)
and its stage children (:meth:`Tracer.stage_span`) never touch the
stack. :meth:`Tracer.anchor_span` is the bridge back: an
explicit-parent span that *does* push onto the stack, used by the
worker thread so the engine's own stack-based ``query``/``tick`` spans
nest under the request's ``worker.exec`` stage.
:meth:`Tracer.record_span` records an already-measured interval in one
call (the admission queue wait, which starts on the loop and ends on
the worker, closes this way).

The span taxonomy instrumented across the codebase:

========================  =====================================================
``tick``                  one decay cycle (:meth:`FungusDB.tick`)
``clock.advance``         one clock tick's subscriber fan-out
``policy.cycle``          one table's fungus cycle + collection
``query``                 one SQL statement end-to-end
``consume``               the Law-2 removal phase of a consuming query
``checkpoint.save``       one checkpoint write
``checkpoint.restore``    one checkpoint load (rows re-inserted)
``sim.op``                one simulator schedule step (fault steps included)
``table.compact``         one tombstone-reclaim pass on a decaying table
``client.request``        one client round trip (root; mints the trace field)
``server.request``        one network frame end-to-end (root, event loop)
``frame.decode``          frame body → payload object
``admission.wait``        enqueue → worker pickup (queue time)
``policy.analyze``        the gatekeeper's parse/plan/Tier-B pass
``worker.exec``           the engine job on the worker thread
``snapshot.read``         a loop-side read from the tick snapshot
``reply``                 response framing + flush
========================  =====================================================

Trace context crosses the wire as a W3C-traceparent-shaped string
(:class:`TraceContext`): ``00-<32 hex trace-id>-<16 hex span-id>-01``.
:meth:`TraceContext.parse` is deliberately tolerant — anything
malformed yields ``None`` and the server minting its own root, never
an error on the request path.

The disabled path is :data:`NULL_TRACER`: every instrumented call site
costs one attribute lookup, a no-op ``span()`` call returning a shared
singleton, and two no-op ``__enter__``/``__exit__`` calls — measured
at < 5% ingest overhead by experiment T3's wall-clock check.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterable

from repro.errors import ObsError


_HEX = frozenset("0123456789abcdef")


class TraceContext:
    """W3C-traceparent-shaped trace context carried in frame payloads."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id  # 32 lowercase hex chars
        self.span_id = span_id    # 16 lowercase hex chars

    def to_traceparent(self) -> str:
        """The wire form: ``00-<trace-id>-<parent-span-id>-01``."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def parse(cls, value: Any) -> "TraceContext | None":
        """Parse a ``trace`` field; ``None`` for anything malformed.

        Tolerant on purpose: a garbage trace field must never refuse a
        request, it just loses its client linkage and the server mints
        a fresh root span instead.
        """
        if not isinstance(value, str):
            return None
        parts = value.split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, flags = parts
        if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
            return None
        if len(flags) != 2 or version == "ff":
            return None
        for piece in (version, trace_id, span_id, flags):
            if not set(piece) <= _HEX:
                return None
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None
        return cls(trace_id=trace_id, span_id=span_id)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TraceContext)
            and other.trace_id == self.trace_id
            and other.span_id == self.span_id
        )

    def __repr__(self) -> str:
        return f"TraceContext({self.to_traceparent()!r})"


class Span:
    """One timed operation, opened with ``with tracer.span(...) as s:``."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "end",
        "status",
        "attrs",
        "attached",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
        attached: bool = True,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.attached = attached
        self.start: float = 0.0
        self.end: float | None = None
        self.status = "ok"

    def set(self, **attrs: Any) -> None:
        """Attach attributes (rows touched, table name, ...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.start = self._tracer._time()
        if self.attached:
            self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = self._tracer._time()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._close(self)
        return False

    def to_dict(self) -> dict[str, Any]:
        """The JSONL wire form of a finished span."""
        end = self.end if self.end is not None else self.start
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": end,
            "duration": end - self.start,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"status={self.status})"
        )


class _NullSpan:
    """Shared no-op span: the whole disabled-tracing fast path."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer every instrumented object starts with."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """A shared no-op span; nothing is recorded."""
        return _NULL_SPAN

    def root_span(self, name: str, **attrs: Any) -> _NullSpan:
        """A shared no-op span; nothing is recorded."""
        return _NULL_SPAN

    def stage_span(self, name: str, parent: Any, **attrs: Any) -> _NullSpan:
        """A shared no-op span; nothing is recorded."""
        return _NULL_SPAN

    def anchor_span(self, name: str, parent: Any, **attrs: Any) -> _NullSpan:
        """A shared no-op span; nothing is recorded."""
        return _NULL_SPAN

    def record_span(
        self, name: str, parent: Any, start: float, end: float, **attrs: Any
    ) -> _NullSpan:
        """Dropped; nothing is recorded."""
        return _NULL_SPAN

    def now(self) -> float:
        """A fixed zero clock; record_span intervals are dropped anyway."""
        return 0.0

    def close(self) -> None:
        pass


#: Process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()


class Tracer:
    """Records spans onto an in-memory ring and an optional exporter."""

    enabled = True

    def __init__(
        self,
        exporter: "JsonlTraceExporter | None" = None,
        max_finished: int = 100_000,
        time_fn=time.perf_counter,
    ) -> None:
        self.exporter = exporter
        self.finished: deque[Span] = deque(maxlen=max_finished)
        self._stack: list[Span] = []
        self._time = time_fn
        # next() on itertools.count is a single bytecode step, so the
        # server's event loop and engine worker can both allocate ids
        # without a lock and without ever colliding.
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def now(self) -> float:
        """The tracer's clock, for :meth:`record_span` intervals."""
        return self._time()

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span, child of the innermost open span (if any)."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            trace_id = next(self._trace_ids)
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(self, name, trace_id, next(self._span_ids), parent_id, attrs)

    def root_span(self, name: str, **attrs: Any) -> Span:
        """A new trace root that ignores (and never touches) the stack.

        This is the request-root constructor for concurrent callers:
        many root spans can be open at once on the event loop without
        interfering with each other or with the engine's stack.
        """
        return Span(
            self, name, next(self._trace_ids), next(self._span_ids), None, attrs,
            attached=False,
        )

    def stage_span(self, name: str, parent: Span, **attrs: Any) -> Span:
        """A child of ``parent`` that never touches the stack."""
        return Span(
            self, name, parent.trace_id, next(self._span_ids), parent.span_id,
            attrs, attached=False,
        )

    def anchor_span(self, name: str, parent: Span, **attrs: Any) -> Span:
        """A child of ``parent`` that *does* join the stack.

        The worker thread opens its ``worker.exec`` stage this way so
        the engine's stack-based spans (``query``, ``tick``, ...) nest
        under the request. Only safe where stack discipline holds —
        i.e. on the single engine worker, never on the event loop.
        """
        return Span(
            self, name, parent.trace_id, next(self._span_ids), parent.span_id,
            attrs, attached=True,
        )

    def record_span(
        self, name: str, parent: Span, start: float, end: float, **attrs: Any
    ) -> Span:
        """Record an already-measured interval as a finished child span.

        For intervals that cross threads (the admission queue wait
        starts on the event loop and ends at worker pickup): both ends
        sample :meth:`now`, then whichever side finishes calls this.
        """
        span = Span(
            self, name, parent.trace_id, next(self._span_ids), parent.span_id,
            attrs, attached=False,
        )
        span.start = float(start)
        span.end = float(end) if end >= start else float(start)
        self.finished.append(span)
        if self.exporter is not None:
            self.exporter.export(span.to_dict())
        return span

    def mint_context(self, span: Span) -> TraceContext:
        """The wire-shaped trace context for ``span`` (hex-widened ids)."""
        return TraceContext(
            trace_id=f"{span.trace_id:032x}", span_id=f"{span.span_id:016x}"
        )

    def _close(self, span: Span) -> None:
        if span.attached:
            # tolerate out-of-order exits (an inner span leaked by an
            # exception path) by unwinding down to the closing span
            while self._stack:
                top = self._stack.pop()
                if top is span:
                    break
        self.finished.append(span)
        if self.exporter is not None:
            self.exporter.export(span.to_dict())

    def to_dicts(self) -> list[dict[str, Any]]:
        """All retained finished spans as dicts, in completion order."""
        return [span.to_dict() for span in self.finished]

    def close(self) -> None:
        """Flush and close the exporter (if any)."""
        if self.exporter is not None:
            self.exporter.close()


class JsonlTraceExporter:
    """Streams finished spans to a JSONL file, one span per line."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = None
        # the server exports from both the event loop and the engine
        # worker thread; serialise writes so lines never interleave
        self._lock = threading.Lock()
        self.spans_written = 0

    def export(self, span_dict: dict[str, Any]) -> None:
        """Append one span record."""
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fh = open(self.path, "w", encoding="utf-8")
            json.dump(span_dict, self._fh, separators=(",", ":"), default=str)
            self._fh.write("\n")
            self.spans_written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


# ----------------------------------------------------------------------
# round-trip: read a JSONL trace back and check span-tree validity
# ----------------------------------------------------------------------

_REQUIRED_KEYS = ("name", "trace_id", "span_id", "parent_id", "start", "end")


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace file; raises :class:`ObsError` if malformed."""
    spans = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ObsError(f"{path}:{lineno}: bad JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise ObsError(f"{path}:{lineno}: span record is not an object")
                spans.append(record)
    except OSError as exc:
        raise ObsError(f"cannot read trace {path}: {exc}") from exc
    return spans


def validate_spans(spans: Iterable[dict[str, Any]]) -> list[str]:
    """Structural problems with a span list (empty list = valid).

    Checks: required keys present, span ids unique, every parent
    exists in the same trace and was opened before its child, and
    child intervals nest inside their parent's interval.
    """
    problems: list[str] = []
    by_id: dict[int, dict[str, Any]] = {}
    spans = list(spans)
    for i, span in enumerate(spans):
        missing = [key for key in _REQUIRED_KEYS if key not in span]
        if missing:
            problems.append(f"span #{i} missing keys {missing}")
            continue
        sid = span["span_id"]
        if sid in by_id:
            problems.append(f"duplicate span_id {sid}")
            continue
        by_id[sid] = span
        if span["end"] < span["start"]:
            problems.append(f"span {sid} ({span['name']!r}) ends before it starts")
    eps = 1e-6
    for span in spans:
        parent_id = span.get("parent_id")
        if parent_id is None or "span_id" not in span:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            problems.append(
                f"span {span['span_id']} ({span['name']!r}) has unknown "
                f"parent {parent_id}"
            )
            continue
        if parent["trace_id"] != span["trace_id"]:
            problems.append(
                f"span {span['span_id']} crosses traces: parent trace "
                f"{parent['trace_id']}, own trace {span['trace_id']}"
            )
        if parent_id >= span["span_id"]:
            problems.append(
                f"span {span['span_id']} opened before its parent {parent_id}"
            )
        if span["start"] < parent["start"] - eps or span["end"] > parent["end"] + eps:
            problems.append(
                f"span {span['span_id']} ({span['name']!r}) interval "
                f"[{span['start']}, {span['end']}] escapes parent "
                f"{parent_id} [{parent['start']}, {parent['end']}]"
            )
    return problems


def validate_trace(path: str | Path) -> list[str]:
    """Read ``path`` and validate it; parse errors become problems."""
    try:
        spans = read_trace(path)
    except ObsError as exc:
        return [str(exc)]
    if not spans:
        return [f"{path}: trace is empty"]
    return validate_spans(spans)
