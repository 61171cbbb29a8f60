"""The event-bus → lineage-store bridge.

:class:`ForensicsCollector` subscribes to the decay-core batch events
and keeps a :class:`~repro.obs.forensics.store.LineageStore` current.
The store keeps one biography per tuple, so the collector walks each
batch row by row, in the batch's order: births from
``TupleInsertedBatch`` (ascending rids), infection edges from
``TupleInfectedBatch`` (infection order), trajectory points from
``TupleDecayedBatch`` (one per changed row), consuming-query capture
from ``TupleConsumedBatch``, and biography closure from
``TupleEvictedBatch`` (delete order) — after each closure it publishes
a :class:`~repro.core.events.DeathRecorded` event so metrics and
dashboards see the resolved forensic cause without knowing the store
exists. It runs among the other handlers of a batch, in subscription
order.

Checkpoint restores re-insert the surviving rows as one batch, whose
births would open fresh (wrong) biographies and burn forensic ids for
rows that are not new. :meth:`stage_restore` arms the collector with
the checkpoint's persisted biographies; when ``RestoreCompleted``
announces how many rows were replayed, the collector rebinds those
rows to their saved biographies positionally — a restore produces no
DeathRecords and no fid drift.
"""

from __future__ import annotations

from typing import Any

from repro.core.events import (
    DeathRecorded,
    RestoreCompleted,
    TableCompacted,
    TupleConsumedBatch,
    TupleDecayedBatch,
    TupleEvictedBatch,
    TupleInfectedBatch,
    TupleInsertedBatch,
)
from repro.obs.forensics.store import LineageStore


class ForensicsCollector:
    """Feeds a lineage store from one database's event bus."""

    def __init__(self, store: LineageStore) -> None:
        self.store = store
        self._db: Any = None
        self._subscriptions: list[tuple[type, Any]] = []
        self._pending_restore: dict[str, list[dict]] = {}

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self, db: Any) -> "ForensicsCollector":
        """Subscribe to ``db.bus`` (once)."""
        if self._db is not None:
            raise RuntimeError("forensics collector is already attached")
        self._db = db
        pairs = [
            (TupleInsertedBatch, self._on_inserted),
            (TupleInfectedBatch, self._on_infected),
            (TupleDecayedBatch, self._on_decayed),
            (TupleConsumedBatch, self._on_consumed),
            (TupleEvictedBatch, self._on_evicted),
            (TableCompacted, self._on_compacted),
            (RestoreCompleted, self._on_restore),
        ]
        for event_type, handler in pairs:
            db.bus.subscribe(event_type, handler)
        self._subscriptions = pairs
        return self

    def detach(self) -> None:
        """Unsubscribe (the store keeps its records)."""
        if self._db is None:
            return
        for event_type, handler in self._subscriptions:
            self._db.bus.unsubscribe(event_type, handler)
        self._subscriptions = []
        self._db = None

    def stage_restore(self, pending: dict[str, list[dict]]) -> None:
        """Arm the restore rebinding with persisted biography dicts."""
        self._pending_restore.update(pending)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_inserted(self, event: TupleInsertedBatch) -> None:
        for rid in range(event.start, event.stop):
            self.store.born(event.table, rid, event.tick)

    def _on_infected(self, event: TupleInfectedBatch) -> None:
        for rid, origin, source in zip(event.rids, event.origins, event.sources):
            self.store.infected(
                event.table, rid, event.fungus, origin, source, event.tick
            )

    def _on_decayed(self, event: TupleDecayedBatch) -> None:
        for rid, freshness in zip(event.rids, event.new_freshness):
            self.store.decayed(event.table, rid, event.tick, freshness)

    def _on_consumed(self, event: TupleConsumedBatch) -> None:
        for rid in event.rids:
            self.store.note_consume(event.table, rid, event.query)

    def _on_evicted(self, event: TupleEvictedBatch) -> None:
        for rid in event.rids:
            record = self.store.died(event.table, rid, event.reason, event.tick)
            if self._db is not None:
                self._db.bus.publish(
                    DeathRecorded(
                        event.table, event.tick, rid, record.cause, fungus=record.fungus
                    )
                )

    def _on_compacted(self, event: TableCompacted) -> None:
        self.store.compacted(event.table, dict(event.remap))

    def _on_restore(self, event: RestoreCompleted) -> None:
        pending = self._pending_restore.pop(event.table, None)
        if not pending or not event.rows:
            return
        lives = self.store._lives.get(event.table, {})  # noqa: SLF001
        rids = list(lives)[-event.rows :]
        self.store.rebind_restored(event.table, rids, pending)
