"""The event-bus → metrics bridge.

A :class:`BusCollector` subscribes to every decay-core event type on a
:class:`~repro.core.db.FungusDB`'s bus and keeps a
:class:`~repro.obs.metrics.MetricsRegistry` current: lifetime totals
per table (inserts, infections, decay events, evictions by reason,
consume volume, summaries), time-decayed EWMA rates on the logical
clock (evictions and consumed tuples per tick), and gauges sampled on
every ``TickCompleted`` (extent, exhausted, pinned, tombstone ratio,
freshness-band occupancy).

Observers of a vectorized mutation read what it left in the arrays:
every freshness write arrives as one ``TupleDecayedBatch`` (a scalar
mutator's is a batch of one row), which the collector folds as
``old - new`` in one pass, and the band gauges come from
:meth:`DecayingTable.band_counts`. Either way the registry ends up
exactly where per-row handlers would have left it — same children,
same float additions in the same order, byte-equal exposition
(``tests/obs/test_collector_arrays.py`` keeps the per-row forms as
references). Inserts arrive one ``TupleInsertedBatch`` per batch,
infections one ``TupleInfectedBatch`` per fungus cycle, consumes one
``TupleConsumedBatch`` per statement and evictions one
``TupleEvictedBatch`` per storage delete, each folded with one
``labels().inc(n)``; the eviction and consume rates take one
``mark(n)`` per batch, which differs from *n* ``mark(1.0)`` calls only
by their rounding (at most ``n * 2**-52 * (mass + n)``,
``tests/obs/test_metrics.py``).

Checkpoint restores replay the surviving rows as an insert batch; the
``RestoreCompleted`` event that follows tells the collector how
many of the preceding inserts were replays, and the collector
compensates so ``repro_inserts_total`` counts genuinely new tuples
only (the restored volume is accounted under
``repro_restored_rows_total`` instead).

The full metric catalogue (all names prefixed ``repro_``):

==================================  ==========  ===========================
``repro_inserts_total``             counter     table
``repro_restored_rows_total``       counter     table
``repro_infections_total``          counter     table, fungus
``repro_decay_events_total``        counter     table, fungus
``repro_freshness_removed_total``   counter     table, fungus
``repro_freshness_restored_total``  counter     table, fungus
``repro_evictions_total``           counter     table, reason
``repro_consumed_tuples_total``     counter     table
``repro_consume_analyzed_total``    counter     table, verdict
``repro_summaries_total``           counter     table, reason
``repro_summarised_rows_total``     counter     table
``repro_ticks_total``               counter     table
``repro_tick_evicted``              histogram   table
``repro_eviction_rate``             ewma        table
``repro_consume_rate``              ewma        table
``repro_extent``                    gauge       table
``repro_exhausted``                 gauge       table
``repro_pinned``                    gauge       table
``repro_tombstone_ratio``           gauge       table
``repro_band_occupancy``            gauge       table, band
``repro_deaths_total``              counter     table, cause
``repro_alerts_fired_total``        counter     table, rule
``repro_alert_active``              gauge       table, rule
``repro_query_calls_total``         counter     kind
``repro_query_rows_total``          counter     kind
``repro_query_seconds``             histogram   kind
``repro_query_fingerprints``        gauge       kind
``repro_query_evicted_total``       counter     kind
==================================  ==========  ===========================

The deaths counter and the alert pair are fed by the forensics layer
(when enabled on the same database): deaths count closed biographies
by resolved forensic cause, and the alert gauge is 1 while a rot-rate
alert rule fires.

The ``repro_query_*`` families are fed by the query-statistics store
(``FungusDB.enable_querystats``) via :class:`QueryExecuted` events:
per statement kind (``select``/``consume``/``insert``/``delete``),
call and result-row totals, a latency histogram, the number of
distinct statement fingerprints currently tracked, and how many cold
fingerprints the bounded store has evicted.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import (
    AlertFired,
    AlertResolved,
    ConsumeAnalyzed,
    DeathRecorded,
    QueryExecuted,
    RestoreCompleted,
    SummaryCreated,
    TickCompleted,
    TupleConsumedBatch,
    TupleDecayedBatch,
    TupleEvictedBatch,
    TupleInfectedBatch,
    TupleInsertedBatch,
)
from repro.obs.metrics import Counter, MetricsRegistry
from repro.storage.vector import numpy


def _inc_each(counter: Counter, amounts: Any) -> None:
    """Add every element of ``amounts`` (a float64 array, none negative)
    to ``counter``, left to right.

    ``add.accumulate`` seeded with the current value performs the
    additions a loop of ``counter.inc(amount)`` would, in its order, so
    the total is bit-identical (a pairwise ``sum`` would not be).
    """
    seeded = numpy.concatenate(([counter.value], amounts))
    counter.value = float(numpy.add.accumulate(seeded)[-1])


class BusCollector:
    """Feeds a metrics registry from one database's event bus."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._db: Any = None
        self._subscriptions: list[tuple[type, Any]] = []

        r = self.registry
        self.inserts = r.counter(
            "repro_inserts_total", "Tuples inserted (restores excluded).", ("table",)
        )
        self.restored = r.counter(
            "repro_restored_rows_total",
            "Rows re-inserted by checkpoint restores.",
            ("table",),
        )
        self.infections = r.counter(
            "repro_infections_total",
            "Fungus seed/spread infections.",
            ("table", "fungus"),
        )
        self.decay_events = r.counter(
            "repro_decay_events_total",
            "Freshness-lowering decay events.",
            ("table", "fungus"),
        )
        self.freshness_removed = r.counter(
            "repro_freshness_removed_total",
            "Total freshness mass removed by decay.",
            ("table", "fungus"),
        )
        self.freshness_restored = r.counter(
            "repro_freshness_restored_total",
            "Total freshness mass restored (access refresh, manual).",
            ("table", "fungus"),
        )
        self.evictions = r.counter(
            "repro_evictions_total",
            "Tuples evicted, by table and reason.",
            ("table", "reason"),
        )
        self.consumed = r.counter(
            "repro_consumed_tuples_total",
            "Tuples carried away by CONSUME SELECT (Law 2).",
            ("table",),
        )
        self.consume_analyzed = r.counter(
            "repro_consume_analyzed_total",
            "Tier-B static analyses of consume statements, by verdict.",
            ("table", "verdict"),
        )
        self.summaries = r.counter(
            "repro_summaries_total",
            "Summaries distilled, by table and reason.",
            ("table", "reason"),
        )
        self.summarised_rows = r.counter(
            "repro_summarised_rows_total",
            "Rows distilled into summaries before leaving R.",
            ("table",),
        )
        self.ticks = r.counter(
            "repro_ticks_total", "Completed decay cycles.", ("table",)
        )
        self.tick_evicted = r.histogram(
            "repro_tick_evicted",
            "Tuples evicted per completed decay cycle.",
            ("table",),
        )
        self.eviction_rate = r.ewma(
            "repro_eviction_rate",
            "Time-decayed evictions per clock tick.",
            ("table",),
        )
        self.consume_rate = r.ewma(
            "repro_consume_rate",
            "Time-decayed consumed tuples per clock tick.",
            ("table",),
        )
        self.extent = r.gauge("repro_extent", "Live tuples per table.", ("table",))
        self.exhausted = r.gauge(
            "repro_exhausted", "Exhausted (f == 0) tuples awaiting eviction.", ("table",)
        )
        self.pinned = r.gauge(
            "repro_pinned", "Pinned (decay-immune) tuples.", ("table",)
        )
        self.tombstone_ratio = r.gauge(
            "repro_tombstone_ratio",
            "Tombstoned share of the allocated row space.",
            ("table",),
        )
        self.band_occupancy = r.gauge(
            "repro_band_occupancy",
            "Live tuples per freshness band.",
            ("table", "band"),
        )
        self.deaths = r.counter(
            "repro_deaths_total",
            "Closed tuple biographies, by forensic cause.",
            ("table", "cause"),
        )
        self.alerts_fired = r.counter(
            "repro_alerts_fired_total",
            "Rot-rate alert rule firings.",
            ("table", "rule"),
        )
        self.alert_active = r.gauge(
            "repro_alert_active",
            "1 while a rot-rate alert rule is firing.",
            ("table", "rule"),
        )
        self.query_calls = r.counter(
            "repro_query_calls_total",
            "Executed statements, by statement kind.",
            ("kind",),
        )
        self.query_rows = r.counter(
            "repro_query_rows_total",
            "Result rows returned by executed statements.",
            ("kind",),
        )
        self.query_seconds = r.histogram(
            "repro_query_seconds",
            "Per-statement execution latency in seconds.",
            ("kind",),
        )
        self.query_fingerprints = r.gauge(
            "repro_query_fingerprints",
            "Distinct statement fingerprints currently tracked.",
            ("kind",),
        )
        self.query_evicted = r.counter(
            "repro_query_evicted_total",
            "Cold fingerprints evicted from the bounded statistics store.",
            ("kind",),
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, db: Any) -> "BusCollector":
        """Subscribe to ``db.bus``; gauges sample from ``db.tables``."""
        if self._db is not None:
            raise RuntimeError("collector is already attached")
        self._db = db
        pairs = [
            (TupleInsertedBatch, self._on_inserted_batch),
            (TupleInfectedBatch, self._on_infected_batch),
            (TupleDecayedBatch, self._on_decayed_batch),
            (TupleEvictedBatch, self._on_evicted_batch),
            (TupleConsumedBatch, self._on_consumed_batch),
            (ConsumeAnalyzed, self._on_consume_analyzed),
            (SummaryCreated, self._on_summary),
            (TickCompleted, self._on_tick),
            (RestoreCompleted, self._on_restore),
            (QueryExecuted, self._on_query),
            (DeathRecorded, self._on_death),
            (AlertFired, self._on_alert_fired),
            (AlertResolved, self._on_alert_resolved),
        ]
        for event_type, handler in pairs:
            db.bus.subscribe(event_type, handler)
        self._subscriptions = pairs
        return self

    def detach(self) -> None:
        """Unsubscribe from the bus (metrics keep their last values)."""
        if self._db is None:
            return
        for event_type, handler in self._subscriptions:
            self._db.bus.unsubscribe(event_type, handler)
        self._subscriptions = []
        self._db = None

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_inserted_batch(self, event: TupleInsertedBatch) -> None:
        self.inserts.labels(table=event.table).inc(len(event))

    def _on_infected_batch(self, event: TupleInfectedBatch) -> None:
        self.infections.labels(table=event.table, fungus=event.fungus).inc(len(event))

    def _on_decayed_batch(self, event: TupleDecayedBatch) -> None:
        # counts exactly as a per-row handler over the expansion would:
        # a lowered row is one decay event plus its removed freshness, a
        # raised row adds to the restored total — same children created,
        # same float additions in the same order
        delta = numpy.asarray(event.old_freshness, dtype=numpy.float64) - numpy.asarray(
            event.new_freshness, dtype=numpy.float64
        )
        lowered = delta >= 0
        removed = delta[lowered]
        restored = -delta[~lowered]
        labels = {"table": event.table, "fungus": event.fungus}
        if removed.size:
            self.decay_events.labels(**labels).inc(int(removed.size))
            _inc_each(self.freshness_removed.labels(**labels), removed)
        if restored.size:
            _inc_each(self.freshness_restored.labels(**labels), restored)

    def _on_evicted_batch(self, event: TupleEvictedBatch) -> None:
        self.evictions.labels(table=event.table, reason=event.reason).inc(len(event))
        self.eviction_rate.labels(table=event.table).mark(float(len(event)), event.tick)

    def _on_consumed_batch(self, event: TupleConsumedBatch) -> None:
        self.consumed.labels(table=event.table).inc(len(event))
        self.consume_rate.labels(table=event.table).mark(float(len(event)), event.tick)

    def _on_consume_analyzed(self, event: ConsumeAnalyzed) -> None:
        self.consume_analyzed.labels(table=event.table, verdict=event.verdict).inc()

    def _on_summary(self, event: SummaryCreated) -> None:
        self.summaries.labels(table=event.table, reason=event.reason).inc()
        self.summarised_rows.labels(table=event.table).inc(event.rows)

    def _on_tick(self, event: TickCompleted) -> None:
        self.ticks.labels(table=event.table).inc()
        self.tick_evicted.labels(table=event.table).observe(event.evicted)
        self.sample_table(event.table)

    def _on_query(self, event: QueryExecuted) -> None:
        self.query_calls.labels(kind=event.kind).inc()
        self.query_rows.labels(kind=event.kind).inc(event.rows)
        self.query_seconds.labels(kind=event.kind).observe(event.seconds)
        self.query_fingerprints.labels(kind=event.kind).set(event.tracked_for_kind)
        if event.evicted:
            self.query_evicted.labels(kind=event.kind).inc(event.evicted)

    def _on_death(self, event: DeathRecorded) -> None:
        self.deaths.labels(table=event.table, cause=event.cause).inc()

    def _on_alert_fired(self, event: AlertFired) -> None:
        self.alerts_fired.labels(table=event.table, rule=event.rule).inc()
        self.alert_active.labels(table=event.table, rule=event.rule).set(1)

    def _on_alert_resolved(self, event: AlertResolved) -> None:
        self.alert_active.labels(table=event.table, rule=event.rule).set(0)

    def _on_restore(self, event: RestoreCompleted) -> None:
        # the replayed insert batch was counted as new inserts;
        # reclassify them as restored volume now that we know how many
        self.restored.labels(table=event.table).inc(event.rows)
        self.inserts.labels(table=event.table).uncount(event.rows)
        self.sample_table(event.table)

    # ------------------------------------------------------------------
    # gauge sampling
    # ------------------------------------------------------------------

    def sample_table(self, name: str) -> None:
        """Refresh the point-in-time gauges for one table."""
        if self._db is None:
            return
        table = self._db.tables.get(name)
        if table is None:
            return
        self.extent.labels(table=name).set(len(table))
        self.exhausted.labels(table=name).set(table.exhausted_count)
        self.pinned.labels(table=name).set(table.pinned_count)
        allocated = table.storage.allocated
        ratio = table.storage.tombstones / allocated if allocated else 0.0
        self.tombstone_ratio.labels(table=name).set(ratio)
        for band, count in table.band_counts().items():
            self.band_occupancy.labels(table=name, band=band.value).set(count)

    def sample_all(self) -> None:
        """Refresh the gauges for every table (dashboard refresh path)."""
        if self._db is None:
            return
        for name in list(self._db.tables):
            self.sample_table(name)
