"""Workload traces: record a run once, replay it anywhere.

A trace is a JSONL file of events in tick order::

    {"tick": 0, "kind": "insert", "table": "readings", "row": {...}}
    {"tick": 0, "kind": "query", "sql": "SELECT ..."}
    {"tick": 0, "kind": "advance"}

:class:`TraceRecorder` captures what a driver does against a FungusDB;
:func:`replay_trace` re-executes a trace against a fresh database.
This decouples workload *generation* from workload *execution* — the
same trace can drive a fungus table and a baseline, or be shipped as a
reproducibility artifact next to an experiment.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro.core.db import FungusDB
from repro.errors import WorkloadError

TRACE_VERSION = 1


class TraceRecorder:
    """Buffers trace events, then writes them as one atomic JSONL file."""

    def __init__(self) -> None:
        self._events: list[dict[str, Any]] = [
            {"kind": "header", "trace_version": TRACE_VERSION}
        ]
        self._tick = 0

    def insert(self, table: str, row: Mapping[str, Any]) -> None:
        """Record one insertion at the current tick."""
        self._events.append(
            {"tick": self._tick, "kind": "insert", "table": table, "row": dict(row)}
        )

    def query(self, sql: str) -> None:
        """Record one SQL statement at the current tick."""
        self._events.append({"tick": self._tick, "kind": "query", "sql": sql})

    def advance(self, ticks: int = 1) -> None:
        """Record clock advancement."""
        if ticks < 0:
            raise WorkloadError(f"cannot advance {ticks} ticks")
        for _ in range(ticks):
            self._events.append({"tick": self._tick, "kind": "advance"})
            self._tick += 1

    @property
    def events(self) -> int:
        """Number of recorded events (header excluded)."""
        return len(self._events) - 1

    def save(self, path: str | Path) -> int:
        """Write the trace; returns the number of events written."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for event in self._events:
                fh.write(json.dumps(event) + "\n")
        os.replace(tmp, path)
        return self.events


class RecordingDB:
    """A thin FungusDB wrapper that records everything it forwards."""

    def __init__(self, db: FungusDB, recorder: TraceRecorder | None = None) -> None:
        self.db = db
        self.recorder = recorder if recorder is not None else TraceRecorder()

    def insert(self, table: str, row: Mapping[str, Any]) -> int:
        self.recorder.insert(table, row)
        return self.db.insert(table, row)

    def insert_many(self, table: str, rows) -> None:
        rows = list(rows)
        self.db.insert_many(table, rows)  # all or nothing: record only what went in
        for row in rows:
            self.recorder.insert(table, row)

    def query(self, sql: str):
        self.recorder.query(sql)
        return self.db.query(sql)

    def tick(self, ticks: int = 1) -> None:
        self.recorder.advance(ticks)
        self.db.tick(ticks)


def replay_trace(path: str | Path, db: FungusDB) -> dict[str, int]:
    """Re-execute a trace against ``db``; returns event counts by kind.

    The database must already contain the tables the trace references
    (schemas and fungi are the experiment's configuration, not part of
    the workload).
    """
    path = Path(path)
    counts = {"insert": 0, "query": 0, "advance": 0}
    try:
        with open(path, encoding="utf-8") as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise WorkloadError(f"trace {path} has a corrupt header: {exc}") from exc
            if not isinstance(header, dict) or header.get("kind") != "header":
                raise WorkloadError(f"trace {path} does not start with a header")
            if header.get("trace_version") != TRACE_VERSION:
                raise WorkloadError(
                    f"trace {path} has version {header.get('trace_version')!r}, "
                    f"expected {TRACE_VERSION}"
                )
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise WorkloadError(f"trace {path}:{lineno} is corrupt: {exc}") from exc
                kind = event.get("kind")
                if kind == "insert":
                    db.insert(event["table"], event["row"])
                elif kind == "query":
                    db.query(event["sql"])
                elif kind == "advance":
                    db.tick(1)
                else:
                    raise WorkloadError(f"trace {path}:{lineno}: unknown kind {kind!r}")
                counts[kind] += 1
    except OSError as exc:
        raise WorkloadError(f"cannot read trace {path}: {exc}") from exc
    return counts
