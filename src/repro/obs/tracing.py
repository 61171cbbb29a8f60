"""Span tracing: the one timer every reported duration comes from.

A :class:`Span` is one named, timed interval with a parent, recorded by
a :class:`Tracer`. Every span reads the clock on enter and exit, so
whatever the product reports as a duration — a server stage histogram,
a slow-query entry, a querystats ``seconds``, an EXPLAIN ANALYZE
operator time — is some span's :attr:`Span.duration`. The tracer only
decides whether finished spans are *kept*: each :class:`FungusDB`
starts with ``Tracer(max_finished=0)``, which keeps none, and tracing
is switched on by assigning a recording tracer (``db.tracer =
Tracer(...)``).

Nesting is tracked on the tracer's stack, so a ``tick`` span opened by
:meth:`FungusDB.tick` becomes the parent of the ``clock.advance`` and
``policy.cycle`` spans opened inside it. A stack is only coherent on
one thread; the server's event loop therefore opens its spans with
:meth:`Tracer.detached_span`, which never touches the stack, and gives
a parent explicitly. The engine worker opens ``worker.exec`` with
:meth:`Tracer.span` and an explicit parent — it joins the worker's
stack, so the engine's own ``query``/``tick`` spans nest under the
request. :meth:`Tracer.record_span` records an already-measured
interval in one call (the admission queue wait, which starts on the
loop and ends on the worker, closes this way). Span ids are sequential
per tracer (allocated off an atomic counter, so the loop and worker
never collide), which keeps traces deterministic and diffable.

The span taxonomy instrumented across the codebase:

========================  =====================================================
``tick``                  one decay cycle (:meth:`FungusDB.tick`)
``clock.advance``         one clock tick's subscriber fan-out
``policy.cycle``          one table's fungus cycle + collection
``query``                 one SQL statement end-to-end
``consume``               the Law-2 removal phase of a consuming query
``explain.analyze``       the instrumented run inside EXPLAIN ANALYZE
``plan.<kind>``           one EXPLAIN ANALYZE operator (scan, sort, ...)
``checkpoint.save``       one checkpoint write
``checkpoint.restore``    one checkpoint load (rows re-inserted)
``sim.op``                one simulator schedule step (fault steps included)
``table.compact``         one tombstone-reclaim pass on a decaying table
``server.request``        one network frame end-to-end (root, event loop)
``frame.decode``          frame body → payload object
``admission.wait``        enqueue → worker pickup (queue time)
``policy.analyze``        the gatekeeper's parse/plan/Tier-B pass
``worker.exec``           the engine job on the worker thread
``snapshot.read``         a loop-side read from the tick snapshot
``reply``                 response framing + flush
========================  =====================================================

Trace context arrives on the wire as a W3C-traceparent-shaped string
(:class:`TraceContext`): ``00-<32 hex trace-id>-<16 hex span-id>-01``.
:meth:`TraceContext.parse` is deliberately tolerant — anything
malformed yields ``None`` and the server minting its own root, never
an error on the request path.
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

    @property
    def duration(self) -> float:
        """Seconds from enter to exit (0.0 while the span is open)."""
        end = self.end if self.end is not None else self.start
        return end - self.start

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
            "duration": self.duration,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"status={self.status})"
        )


class Tracer:
    """Times spans; keeps the last ``max_finished`` and exports each one.

    ``Tracer(max_finished=0)`` with no exporter is the non-recording
    tracer every database, clock, engine and table starts with: its
    spans still time themselves (every reported duration needs that),
    they are just not kept.
    """

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

    def span(self, name: str, parent: Span | None = None, **attrs: Any) -> Span:
        """A span that joins the stack while open.

        Its parent is ``parent`` when given, else the innermost open
        span, else none (a new trace). Only one thread may open these
        on a given tracer — the engine's, never the server's event loop.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        return self._new(name, parent, attrs, True)

    def detached_span(
        self, name: str, parent: Span | None = None, **attrs: Any
    ) -> Span:
        """A span that never touches the stack: a child of ``parent``,
        or a new trace root without one. Safe on any thread, so the
        event loop can hold many open at once."""
        return self._new(name, parent, attrs, False)

    def record_span(
        self, name: str, parent: Span, start: float, end: float, **attrs: Any
    ) -> Span:
        """Record an already-measured interval as a finished child span.

        For intervals that cross threads (the admission queue wait
        starts on the event loop and ends at worker pickup): both ends
        sample :meth:`now`, then whichever side finishes calls this.
        """
        span = self._new(name, parent, attrs, False)
        span.start = float(start)
        span.end = float(end) if end >= start else float(start)
        self._close(span)
        return span

    def _new(
        self, name: str, parent: Span | None, attrs: dict[str, Any], attached: bool
    ) -> Span:
        if parent is None:
            return Span(
                self, name, next(self._trace_ids), next(self._span_ids), None,
                attrs, attached,
            )
        return Span(
            self, name, parent.trace_id, next(self._span_ids), parent.span_id,
            attrs, attached,
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
