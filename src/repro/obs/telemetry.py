"""The one-call metrics facade for a FungusDB.

:class:`Telemetry` bundles a metrics registry with the bus collector
that keeps it current::

    db = FungusDB(seed=7)
    tel = db.enable_telemetry()
    ... workload ...
    print(tel.exposition())          # Prometheus text format

Tracing is not part of it: every database already times its work with
spans, and keeping them is a matter of assigning a recording tracer
(``db.tracer = Tracer(JsonlTraceExporter("run.jsonl"))``), which
telemetry never touches.
"""

from __future__ import annotations

from typing import Any

from repro.obs.collector import BusCollector
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry


class Telemetry:
    """A metrics registry fed from one FungusDB's event bus."""

    def __init__(self, db: Any) -> None:
        self.db = db
        self.registry = MetricsRegistry()
        self.collector = BusCollector(self.registry).attach(db)

    def exposition(self) -> str:
        """Prometheus text exposition of every metric, gauges refreshed."""
        self.collector.sample_all()
        return render_prometheus(self.registry)

    def close(self) -> None:
        """Detach from the bus; the database's tracer is left alone."""
        self.collector.detach()
        if self.db.telemetry is self:
            self.db.telemetry = None
