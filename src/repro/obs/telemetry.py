"""The one-call observability facade for a FungusDB.

:class:`Telemetry` bundles the three obs subsystems and wires them
into a live database::

    db = FungusDB(seed=7)
    tel = db.enable_telemetry(tracing=True, trace_path="run.jsonl")
    ... workload ...
    print(tel.exposition())          # Prometheus text format
    spans = tel.tracer.to_dicts()    # the causal timeline

Wiring performed on attach:

* a :class:`~repro.obs.collector.BusCollector` subscribes to the
  database's event bus and keeps the metrics registry current;
* when tracing is requested, a live :class:`~repro.obs.tracing.Tracer`
  replaces the :data:`~repro.obs.tracing.NULL_TRACER` on the database,
  its decay clock, and its query engine (one shared tracer, so spans
  nest correctly across layers);
* :meth:`exposition` additionally folds the hot-path
  :data:`~repro.obs.profile.PROFILER` counters into the registry so
  one scrape carries everything.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.obs.collector import BusCollector
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PROFILER
from repro.obs.tracing import NULL_TRACER, JsonlTraceExporter, Tracer


class Telemetry:
    """Metrics + tracing + profiling attached to one FungusDB."""

    def __init__(
        self,
        db: Any,
        tracing: bool = False,
        trace_path: str | Path | None = None,
        rate_tau: float = 10.0,
        sample_every: int = 1,
        profile: bool = False,
    ) -> None:
        self.db = db
        self.registry = MetricsRegistry()
        self.collector = BusCollector(
            self.registry, rate_tau=rate_tau, sample_every=sample_every
        ).attach(db)
        exporter = JsonlTraceExporter(trace_path) if trace_path else None
        if tracing or exporter is not None:
            self.tracer: Any = Tracer(exporter=exporter)
        else:
            self.tracer = NULL_TRACER
        # the db's tracer property fans out to clock, engine and tables
        db.tracer = self.tracer
        if profile:
            PROFILER.enable()
        self._owns_profiler = profile

    def exposition(self) -> str:
        """Prometheus text exposition of every metric, gauges refreshed."""
        self.collector.sample_all()
        self._export_profiler()
        return render_prometheus(self.registry)

    def _export_profiler(self) -> None:
        snapshot = PROFILER.snapshot()
        if not snapshot:
            return
        calls = self.registry.gauge(
            "repro_hotpath_calls", "Hot-path profiler: calls per site.", ("site",)
        )
        rows = self.registry.gauge(
            "repro_hotpath_rows", "Hot-path profiler: rows touched per site.", ("site",)
        )
        seconds = self.registry.gauge(
            "repro_hotpath_seconds", "Hot-path profiler: seconds per site.", ("site",)
        )
        for site, stats in snapshot.items():
            calls.labels(site=site).set(stats.calls)
            rows.labels(site=site).set(stats.rows)
            seconds.labels(site=site).set(stats.seconds)

    def close(self) -> None:
        """Detach from the bus, un-wire the tracer, close the exporter."""
        self.collector.detach()
        self.tracer.close()
        self.db.tracer = NULL_TRACER
        if self._owns_profiler:
            PROFILER.disable()
        if self.db is not None and getattr(self.db, "telemetry", None) is self:
            self.db.telemetry = None
