"""FungusDB: the user-facing decaying database.

Wires every piece together: a catalog + query engine (with ``CONSUME
SELECT``), one :class:`~repro.core.table.DecayingTable` per relation,
one :class:`~repro.core.policy.DecayPolicy` per relation (Law 1), a
shared :class:`~repro.core.distill.Distiller` (summaries on decay
*and* on consume), and one decay clock driving it all.

Quickstart::

    from repro import FungusDB, Schema, EGIFungus

    db = FungusDB(seed=7)
    db.create_table(
        "readings",
        Schema.of(sensor="str", temp="float"),
        fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.25),
    )
    db.insert("readings", {"sensor": "s1", "temp": 21.5})
    db.tick(10)                      # Law 1: ten decay cycles
    fresh = db.query("SELECT sensor, temp FROM readings WHERE f > 0.5")
    eaten = db.query("CONSUME SELECT * FROM readings WHERE temp > 30")
"""

from __future__ import annotations

import zlib
from typing import Any, Mapping, Sequence

from repro.core.clock import DecayClock
from repro.core.distill import Distiller, SummaryStore
from repro.core.events import (
    ConsumeAnalyzed,
    EventBus,
    QueryExecuted,
    TupleConsumed,
)
from repro.core.fungus import Fungus
from repro.core.health import HealthReport, measure_health
from repro.core.policy import DecayPolicy, EvictionMode
from repro.core.table import DecayingTable
from repro.errors import CatalogError, DecayError
from repro.fungi.wrappers import NullFungus
from repro.obs.tracing import NULL_TRACER
from repro.query.executor import QueryEngine
from repro.query.result import ResultSet
from repro.sketch.summary import SummaryConfig, TableSummary
from repro.storage.catalog import Catalog
from repro.storage.rowset import RowSet
from repro.storage.schema import Schema


class FungusDB:
    """A relational database that obeys the two natural laws of Big Data."""

    def __init__(
        self,
        seed: int = 0,
        summary_config: SummaryConfig | None = None,
        max_summaries_per_table: int = 0,
        store: SummaryStore | None = None,
        strict_consume: bool = False,
    ) -> None:
        self.seed = seed
        self.clock = DecayClock()
        self.bus = EventBus()
        self.catalog = Catalog()
        self.engine = QueryEngine(self.catalog)
        # a custom store (e.g. a SummaryVault whose summaries themselves
        # rot) wins over the max_summaries_per_table convenience knob
        self.store = store if store is not None else SummaryStore(
            max_per_table=max_summaries_per_table
        )
        self.distiller = Distiller(self.store, summary_config)
        self.tables: dict[str, DecayingTable] = {}
        self.policies: dict[str, DecayPolicy] = {}
        self._tracer = NULL_TRACER
        self.telemetry = None
        self.forensics = None
        self.querystats = None
        self.race_probe = None
        self.engine.add_consume_hook(self._before_consume)
        self.engine.add_access_hook(self._on_access)
        # Tier-B static analysis: EXPLAIN CONSUME + the strict gate see
        # the freshness domain invariant, and every analysis is published
        self.engine.strict_consume = strict_consume
        self.engine.consume_domains = self._column_domains
        self.engine.add_explain_hook(self._on_consume_analyzed)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The tracer every instrumented component records spans on."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        """Wire one tracer everywhere, atomically from the caller's view.

        Assigning ``db.tracer`` propagates to the clock, the query
        engine and every *existing* table; :meth:`create_table` hands
        the same tracer to tables created later — so a tracer passed
        to ``load_checkpoint`` also covers tables born after the
        restore, and the flight recorder never loses spans to wiring
        order.
        """
        self._tracer = tracer
        self.clock.tracer = tracer
        self.engine.tracer = tracer
        for table in self.tables.values():
            table.tracer = tracer

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        attributes: Schema,
        fungus: Fungus | None = None,
        period: int = 1,
        eviction: EvictionMode = EvictionMode.EAGER,
        lazy_batch: int = 64,
        compact_every: int = 0,
        distill_on_evict: bool = True,
        time_column: str = "t",
        freshness_column: str = "f",
    ) -> DecayingTable:
        """Create a decaying relation ``R(t, f, A1..An)``.

        ``fungus=None`` installs the :class:`NullFungus` control —
        a table that never rots (but still supports consume). Every
        table gets a sorted index on its time column, and consumed
        tuples are always distilled before they leave.
        """
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        table = DecayingTable(
            name,
            attributes,
            self.clock,
            self.bus,
            time_column=time_column,
            freshness_column=freshness_column,
        )
        self.catalog.register(table.storage)
        self.catalog.create_sorted_index(name, table.time_column)
        policy = DecayPolicy(
            table,
            fungus if fungus is not None else NullFungus(),
            period=period,
            eviction=eviction,
            lazy_batch=lazy_batch,
            distiller=self.distiller if distill_on_evict else None,
            compact_every=compact_every,
            # crc32, not hash(): str hashing is salted per process
            # (PYTHONHASHSEED), and a seeded database must produce the
            # same decay schedule in every process
            seed=zlib.crc32(f"{self.seed}:{name}".encode()) & 0xFFFFFFFF,
        )
        table.tracer = self._tracer
        if self.race_probe is not None:
            table.storage.probe = self.race_probe
        self.tables[name] = table
        self.policies[name] = policy
        # SQL INSERTs go through the decaying insert path (t/f stamped);
        # bare INSERT INTO <name> VALUES (...) targets the attributes only
        self.engine.register_insert_delegate(name, table.insert_many, attributes.names)
        return table

    def drop_table(self, name: str) -> None:
        """Remove a relation entirely (its summaries survive).

        The remaining extent is evicted with reason ``"truncate"``
        first, so every tuple's departure is observable — forensics
        records a ``truncated`` death for each, instead of the rows
        silently vanishing with the catalog entry.
        """
        table = self._table(name)  # raise early on unknown names
        live = table.rowset()
        if live:
            table.evict(live, reason="truncate", collect_values=False)
        del self.tables[name]
        del self.policies[name]
        self.catalog.drop_table(name)

    def table(self, name: str) -> DecayingTable:
        """The decaying table called ``name``."""
        return self._table(name)

    def _table(self, name: str) -> DecayingTable:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}; have {sorted(self.tables)}") from None

    # ------------------------------------------------------------------
    # data in
    # ------------------------------------------------------------------

    def insert(self, name: str, row: Mapping[str, Any]) -> int:
        """Insert one tuple (stamped ``t=now``, ``f=1.0``)."""
        return self._table(name).insert(row)

    def insert_many(self, name: str, rows: Sequence[Mapping[str, Any]]) -> RowSet:
        """Insert many tuples at the current tick."""
        return self._table(name).insert_many(rows)

    # ------------------------------------------------------------------
    # time (Law 1)
    # ------------------------------------------------------------------

    def tick(self, ticks: int = 1) -> None:
        """Advance the decay clock; every due policy runs its fungus."""
        if ticks < 0:
            raise DecayError(f"cannot tick backwards ({ticks})")
        for _ in range(ticks):
            with self.tracer.span("tick", clock=int(self.clock.now) + 1):
                self.clock.advance(1)
                now = int(self.clock.now)
                for name in sorted(self.policies):
                    with self.tracer.span("policy.cycle", table=name) as span:
                        report = self.policies[name].run_tick(now)
                        if report is not None:
                            span.set(
                                seeded=report.seeded,
                                spread=report.spread,
                                decayed=report.decayed,
                            )
                self.store.on_tick(now)  # the summary container rots too

    @property
    def now(self) -> float:
        """Current logical time."""
        return self.clock.now

    # ------------------------------------------------------------------
    # queries (Law 2 included)
    # ------------------------------------------------------------------

    def query(self, sql: str) -> ResultSet:
        """Run ``SELECT`` / ``CONSUME SELECT`` against the database."""
        for table in self.tables.values():
            table.set_eviction_reason("external")
        return self.engine.execute(sql)

    def consume(self, sql: str) -> ResultSet:
        """Run a query that must be consuming (guards against typos)."""
        result = self.query(sql)
        if not result.stats.rows_consumed and not sql.strip().upper().startswith("CONSUME"):
            raise DecayError("consume() requires a CONSUME SELECT statement")
        return result

    def explain_consume(self, sql: str):
        """Statically analyze a consume statement without executing it.

        Returns the Tier-B :class:`~repro.lint.analyze.ConsumeReport`
        (verdict ``none``/``partial``/``total``/``invalid`` plus the
        histogram-estimated footprint). Equivalent to running the SQL
        ``EXPLAIN CONSUME SELECT ...`` but handing back the structured
        report instead of text rows. Publishes :class:`ConsumeAnalyzed`.
        """
        return self.engine.analyze_consume(sql)

    def _column_domains(self, table_name: str) -> dict[str, tuple[float, float]] | None:
        """Closed numeric domains the analyzer may assume for a table.

        Freshness is clamped to ``[0, 1]`` by every sanctioned mutator,
        so the invariant holds between analysis and execution. The time
        column's ``t <= now`` bound is deliberately *not* offered — it
        would go stale the moment the clock ticks.
        """
        table = self.tables.get(table_name)
        if table is None:
            return None
        return {table.freshness_column: (0.0, 1.0)}

    def _on_consume_analyzed(self, report) -> None:
        """Explain hook: every Tier-B analysis becomes a bus event."""
        estimated = -1 if report.estimated_rows is None else report.estimated_rows
        if self.querystats is not None:
            self.querystats.note_verdict(report.sql, report.verdict)
        self.bus.publish(
            ConsumeAnalyzed(
                report.table,
                self.clock.now,
                verdict=report.verdict,
                estimated_rows=estimated,
                sql=report.sql,
            )
        )

    def _before_consume(self, table_name: str, consumed: RowSet) -> None:
        """Consume hook: distill + label + notify, before deletion."""
        table = self.tables.get(table_name)
        if table is None:
            return  # a plain storage table, not a decaying one
        self.distiller.distill_rowset(table, consumed, reason="consume")
        self.policies[table_name].stats.tuples_distilled += len(consumed)
        # the executor exposes the SQL text of the statement currently
        # running — Law-2 death records carry the consuming query verbatim,
        # plus the acting session when one is set (the network server)
        query_text = self.engine.current_sql or "consume"
        if self.engine.current_actor is not None:
            query_text = f"{query_text} @{self.engine.current_actor}"
        for rid in consumed:
            self.bus.publish(TupleConsumed(table_name, self.clock.now, rid, query=query_text))
        table.set_eviction_reason("consume")

    def _on_access(self, table_name: str, matched: RowSet) -> None:
        """Access hook: matched rows may refresh, per the table's fungus."""
        policy = self.policies.get(table_name)
        if policy is not None:
            policy.note_access(matched)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def enable_telemetry(
        self,
        tracing: bool = False,
        trace_path: str | None = None,
        rate_tau: float = 10.0,
        sample_every: int = 1,
        profile: bool = False,
    ):
        """Attach the rot-telemetry layer; returns the :class:`Telemetry`.

        Metrics collection starts immediately (a bus subscriber feeds
        the registry); ``tracing=True`` (or a ``trace_path``) swaps a
        live tracer onto the clock, query engine and checkpoint paths;
        ``profile=True`` turns on the hot-path profiler. Idempotent:
        a second call returns the existing attachment.
        """
        if self.telemetry is None:
            from repro.obs.telemetry import Telemetry

            self.telemetry = Telemetry(
                self,
                tracing=tracing,
                trace_path=trace_path,
                rate_tau=rate_tau,
                sample_every=sample_every,
                profile=profile,
            )
        return self.telemetry

    def disable_telemetry(self) -> None:
        """Detach telemetry (no-op when not enabled)."""
        if self.telemetry is not None:
            self.telemetry.close()

    def enable_forensics(
        self,
        rules: Sequence[str] = (),
        trajectory_len: int = 16,
        max_deaths: int = 10_000,
        max_alerts: int = 1_000,
    ):
        """Attach rot forensics; returns the :class:`Forensics` layer.

        From this point every tuple leaving a relation closes into a
        death record with full infection lineage, and the declarative
        ``rules`` are evaluated against rot signals on every completed
        tick. Idempotent: a second call returns the existing layer
        (``rules`` from later calls are added to it).
        """
        from repro.obs.forensics import Forensics

        if self.forensics is None:
            self.forensics = Forensics(
                self,
                trajectory_len=trajectory_len,
                max_deaths=max_deaths,
                max_alerts=max_alerts,
                rules=rules,
            )
        else:
            for rule in rules:
                self.forensics.add_rule(rule)
        return self.forensics

    def disable_forensics(self) -> None:
        """Detach forensics (no-op when not enabled)."""
        if self.forensics is not None:
            self.forensics.close()

    def enable_querystats(self, max_entries: int = 256):
        """Attach the query-statistics store; returns the store.

        From this point every executing statement is fingerprinted and
        aggregated (``pg_stat_statements``-style), a lazily-built
        :class:`QueryExecuted` event is published per statement, and
        Tier-B consume verdicts attach to their statement's
        fingerprint. Idempotent: a second call returns the existing
        store.
        """
        if self.querystats is None:
            from repro.obs.querystats import QueryStatsStore

            store = QueryStatsStore(max_entries=max_entries)
            self.querystats = store

            def record_statement(record) -> None:
                observation = store.observe(record, now=self.clock.now)
                self.bus.publish_lazy(
                    QueryExecuted,
                    lambda: QueryExecuted(
                        record.statement.target,
                        self.clock.now,
                        kind=record.kind,
                        fingerprint=observation.fingerprint,
                        rows=record.rows,
                        rows_consumed=record.rows_consumed,
                        seconds=record.seconds,
                        tracked_for_kind=observation.tracked_for_kind,
                        evicted=observation.evicted,
                    ),
                )

            self.engine.add_stats_hook(record_statement)
        return self.querystats

    def enable_race_probe(self, mode: str = "raise"):
        """Arm the runtime thread-sanitizer probe; returns the probe.

        Every current and future table of *this* database gets the
        probe (fan-out mirrors the tracer setter), which records the
        owning thread of each mutation and flags — or, with
        ``mode="record"``, collects — any mutation arriving from a
        different thread. Ownership is claimed by the first mutation
        after arming; :meth:`~repro.storage.raceprobe.RaceProbe.bind`
        re-claims it at handoffs. Idempotent: a second call returns
        the existing probe.
        """
        if self.race_probe is None:
            from repro.storage.raceprobe import RaceProbe

            self.race_probe = RaceProbe(mode=mode)
            for table in self.tables.values():
                table.storage.probe = self.race_probe
        return self.race_probe

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def health(self, name: str) -> HealthReport:
        """Rot metrics for one table."""
        return measure_health(self._table(name))

    def summaries(self, name: str) -> list[TableSummary]:
        """All summaries distilled from one table, oldest first."""
        return self.store.for_table(name)

    def merged_summary(self, name: str) -> TableSummary | None:
        """Everything that ever left the table, as one summary."""
        return self.store.merged(name)

    def extent(self, name: str) -> int:
        """Live tuple count of one table."""
        return len(self._table(name))

    def stats(self) -> dict[str, Any]:
        """A one-call overview of the whole database.

        Returns clock position, per-table extent/exhausted/pinned and
        lifetime policy counters, event totals from the bus, and the
        summary store's size — what a monitoring endpoint would expose.
        """
        tables = {}
        for name in sorted(self.tables):
            table = self.tables[name]
            policy = self.policies[name]
            tables[name] = {
                "extent": len(table),
                "exhausted": table.exhausted_count,
                "pinned": table.pinned_count,
                "allocated": table.storage.allocated,
                "tombstones": table.storage.tombstones,
                "fungus": policy.fungus.name,
                "cycles_run": policy.stats.cycles_run,
                "tuples_evicted": policy.stats.tuples_evicted,
                "tuples_distilled": policy.stats.tuples_distilled,
            }
        return {
            "clock": self.clock.now,
            "tables": tables,
            "events": dict(self.bus.counts),
            "summary_rows": self.store.total_rows_summarised,
            "summary_cells": self.store.memory_cells(),
        }
