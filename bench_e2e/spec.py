"""The benchmark's fixed vocabulary: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repo root states the same names for the
driver; ``tests/test_smoke.py`` keeps the two in step.

Every workload reports every end-to-end metric. The three latency slots
mean a different operation on each workload (``SLOTS``), because no one
operation exists on all four: ingest_decay never queries and query_scan
never writes.
"""

from __future__ import annotations

WORKLOADS = ("ingest_decay", "query_scan", "consume_cook", "server_mix")

#: name -> (unit, better, bound). ``bound`` is the share of the parent's
#: median by which the metric may worsen before it counts as a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "primary_p50_ms": ("ms", "lower", 0.20),
    "secondary_p50_ms": ("ms", "lower", 0.25),
    "tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

#: what the latency slots time on each workload
SLOTS = {
    "ingest_decay": {
        "primary_p50_ms": "db.tick(1), p50",
        "secondary_p50_ms": "db.insert_many(1000 rows), p50",
        "tail_ms": "db.tick(1), p90",
    },
    "query_scan": {
        "primary_p50_ms": "S1 two-conjunct count(*) scan, p50",
        "secondary_p50_ms": "S3 hash-index point read, p50",
        "tail_ms": "S3 hash-index point read, p95",
    },
    "consume_cook": {
        "primary_p50_ms": "C1 + C2 CONSUME statements of one round, p50",
        "secondary_p50_ms": "db.tick(1) with telemetry on, p50",
        "tail_ms": "C1 + C2 of one round, p75 (about 40 timed rounds support no higher)",
    },
    "server_mix": {
        "primary_p50_ms": "snapshot read round trip, p50",
        "secondary_p50_ms": "insert round trip, p50",
        "tail_ms": "all closed-loop requests, p95",
    },
}

#: spans recorded by the traced run; each reports ``.self_s`` and ``.calls``
SPANS = (
    "core.insert_many",
    "storage.coerce",
    "storage.append",
    "storage.index",
    "core.run_tick",
    "fungi.cycle",
    "core.decay_many",
    "core.evict",
    "storage.delete_many",
    "storage.compact",
    "core.distill",
    "sketch.add_row",
    "core.events",
    "obs.sample_table",
    "obs.querystats",
    "query.parse",
    "query.plan",
    "query.stats",
    "query.exec",
    "storage.gather",
    "harness.gen",
)

#: counts that repeat exactly under one seed on the embedded workloads
EXACT_COUNTS = (
    "core.rows_inserted",
    "core.rows_evicted",
    "core.rows_consumed",
    "core.rows_distilled",
    "core.extent_end",
    "storage.tombstones_end",
    "core.events_published",
    "sketch.summary_cells",
)

SERVER_STAGES = (
    "decode",
    "admission_wait",
    "policy_analyze",
    "worker_exec",
    "snapshot_read",
    "reply",
)


def _per_layer() -> dict[str, tuple[str, str]]:
    metrics: dict[str, tuple[str, str]] = {}
    # timers from the untraced pass of a --trace 1 run
    for name in (
        "ingest.insert_p50_ms",
        "ingest.rows_per_s",
        "tick.p50_ms",
        "tick.p95_ms",
        "query.scan_p50_ms",
        "query.agg_p50_ms",
        "query.point_p50_ms",
        "query.strscan_p50_ms",
        "query.proj_p50_ms",
        "query.fresh_p50_ms",
        "query.topk_p50_ms",
        "query.trange_p50_ms",
        "consume.c1_p50_ms",
        "consume.c2_p50_ms",
        "consume.rows_per_s",
    ):
        unit = "rows/s" if name.endswith("rows_per_s") else "ms"
        metrics[name] = (unit, "higher" if unit == "rows/s" else "lower")
    for name in EXACT_COUNTS:
        metrics[name] = ("count", "lower")
    metrics["query.rows_scanned_per_row_out"] = ("ratio", "lower")
    for span in SPANS:
        metrics[f"{span}.self_s"] = ("s", "lower")
        metrics[f"{span}.calls"] = ("count", "lower")
    metrics["trace.coverage_ratio"] = ("ratio", "higher")
    metrics["trace_overhead_ratio"] = ("ratio", "lower")
    # server, measured from outside its process
    metrics["server.req_per_s"] = ("req/s", "higher")
    metrics["server.client_mean_ms"] = ("ms", "lower")
    metrics["server.strong_p50_ms"] = ("ms", "lower")
    metrics["server.consume_p50_ms"] = ("ms", "lower")
    for stage in SERVER_STAGES:
        metrics[f"server.stage.{stage}.mean_ms"] = ("ms", "lower")
    metrics["server.stage_sum_ms_per_req"] = ("ms", "lower")
    metrics["server.unaccounted_ms_per_req"] = ("ms", "lower")
    metrics["server.ticker_lag_ms"] = ("ms", "lower")
    metrics["server.cpu_ms_per_req"] = ("ms", "lower")
    metrics["server.open40.p50_ms"] = ("ms", "lower")
    metrics["server.open40.p95_ms"] = ("ms", "lower")
    metrics["loadgen.late_p95_ms"] = ("ms", "lower")
    metrics["loadgen.cpu_s"] = ("s", "lower")
    return metrics


#: name -> (unit, better); printed by ``--trace 1`` runs, never gated
PER_LAYER = _per_layer()
