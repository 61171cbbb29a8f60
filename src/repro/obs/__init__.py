"""Rot telemetry: metrics, tracing and exposition.

The paper's "optimal health condition" is an *operational* promise —
an operator must be able to watch rot progress continuously, not just
probe it. This package is that observability layer:

* :mod:`repro.obs.metrics` — counters, gauges, histograms, and
  time-decayed EWMA rates in a Prometheus-shaped registry;
* :mod:`repro.obs.collector` — the event-bus subscriber that keeps
  the registry current (evictions/sec, infections per fungus, consume
  volume, tombstone ratio, freshness-band occupancy per table);
* :mod:`repro.obs.tracing` — spans (``tick`` / ``query`` /
  ``checkpoint`` / ``consume`` / server stages) with parent/child links
  and a JSONL exporter; every duration the product reports is a span's;
* :mod:`repro.obs.export` — Prometheus text exposition + strict
  round-trip parser;
* :mod:`repro.obs.dashboard` — the ``python -m repro obs`` live
  terminal rot dashboard;
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade
  (registry + collector) ``FungusDB.enable_telemetry`` hands back.

Imports here are lazy (PEP 562): the core imports
``repro.obs.tracing``, and this package must never drag
``repro.core`` back into that import path.
"""

from __future__ import annotations

_EXPORTS = {
    "BusCollector": "repro.obs.collector",
    "JsonlTraceExporter": "repro.obs.tracing",
    "MetricsRegistry": "repro.obs.metrics",
    "Span": "repro.obs.tracing",
    "Telemetry": "repro.obs.telemetry",
    "TraceContext": "repro.obs.tracing",
    "Tracer": "repro.obs.tracing",
    "parse_prometheus": "repro.obs.export",
    "read_trace": "repro.obs.tracing",
    "render_prometheus": "repro.obs.export",
    "sample_value": "repro.obs.export",
    "validate_spans": "repro.obs.tracing",
    "validate_trace": "repro.obs.tracing",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
