"""Typed event bus for the decay core.

Everything observable about a decaying table is an event: insertion,
infection, freshness decay, eviction, consumption, summarisation, tick
completion. Health metrics, the distiller, experiment probes and tests
all subscribe here instead of poking at internals.

Every lifecycle step of a tuple is published once per batch:
:class:`TupleInsertedBatch` (a rid range), :class:`TupleInfectedBatch`
(one fungus cycle's infections), :class:`TupleDecayedBatch` (the
changed rows of one write), :class:`TupleConsumedBatch` (one consuming
statement's rows) and :class:`TupleEvictedBatch` (one storage delete,
with the rows' last values by column). Yet the lifecycle ledger counts
tuples, not deliveries: a batch of *n* advances the per-tuple type's
count (``counts["TupleInserted"]``, ``counts["TupleEvicted"]``…) by
*n*, its own subscribers get the one event, and subscribers of the
per-tuple type still get one event per row in the batch's order
(ascending rids; infection order for an infection batch; delete order
for an eviction batch) — built by the bus, and only when such a
subscriber exists. By then the whole batch has happened: a handler
looking at row *i* may already see rows *i+1…* inserted or gone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Iterator, Type, TypeVar

from repro.errors import EventFanoutError


@dataclass(frozen=True)
class Event:
    """Base class for all decay-core events."""

    table: str
    tick: float

    #: set by a coalesced event that stands for ``len(event)`` events of
    #: this per-tuple type: the bus counts it under that type's name and
    #: delivers its :meth:`expand` to that type's subscribers
    per_tuple: ClassVar["Type[Event] | None"] = None


@dataclass(frozen=True)
class TupleInserted(Event):
    """A tuple entered R with freshness 1.0."""

    rid: int


@dataclass(frozen=True)
class TupleInsertedBatch(Event):
    """Rows ``[start, stop)`` entered R together (``stop > start``).

    The one insertion event: ``insert``, ``insert_many`` and checkpoint
    restores all publish it, a single row being a batch of one. The
    rids of a batch are contiguous, so the payload is a range whatever
    the batch size.
    """

    start: int
    stop: int

    per_tuple = TupleInserted

    def __len__(self) -> int:
        return self.stop - self.start

    def expand(self) -> Iterator[TupleInserted]:
        """Per-tuple :class:`TupleInserted` events, ascending rid order."""
        for rid in range(self.start, self.stop):
            yield TupleInserted(self.table, self.tick, rid)


@dataclass(frozen=True)
class TupleInfected(Event):
    """A fungus seeded or spread onto a tuple.

    ``origin`` is ``"seed"`` (age-biased selection landed here) or
    ``"spread"`` (infection grew in from a neighbour); for spread
    infections ``source`` is the row id of the infecting neighbour —
    the edge the forensics layer chains into infection lineage.
    """

    rid: int
    fungus: str
    origin: str = "seed"
    source: int | None = None


@dataclass(frozen=True)
class TupleInfectedBatch(Event):
    """One fungus cycle's infections, in infection order (``len > 0``).

    ``rids``, ``origins`` and ``sources`` align: EGI publishes its seeds
    in draw order, then its spread frontier (span by span, the row
    before a spot ahead of the row after it); a single infection
    (``DecayingTable.mark_infected``) is a batch of one. The bus counts
    it as ``len(event)`` :class:`TupleInfected` events and delivers its
    :meth:`expand` to subscribers of that type.
    """

    rids: tuple
    origins: tuple
    sources: tuple
    fungus: str

    per_tuple = TupleInfected

    def __len__(self) -> int:
        return len(self.rids)

    def expand(self) -> Iterator[TupleInfected]:
        """Per-tuple :class:`TupleInfected` events, in infection order."""
        for rid, origin, source in zip(self.rids, self.origins, self.sources):
            yield TupleInfected(self.table, self.tick, rid, self.fungus, origin, source)


@dataclass(frozen=True)
class TupleDecayed(Event):
    """A tuple's freshness changed (dropped, or rose on a refresh)."""

    rid: int
    old_freshness: float
    new_freshness: float
    fungus: str


@dataclass(frozen=True)
class TupleDecayedBatch(Event):
    """One freshness write changed these tuples' freshness (``len > 0``).

    The one decay event: the batch mutators and the scalar ones (a
    batch of one row) all publish it. ``rids`` is ascending,
    ``old_freshness``/``new_freshness`` align with it, and only rows
    whose freshness actually changed are included. The bus counts it as
    ``len(event)`` :class:`TupleDecayed` events and delivers its
    :meth:`expand` to subscribers of that type.
    """

    rids: tuple
    old_freshness: tuple
    new_freshness: tuple
    fungus: str

    per_tuple = TupleDecayed

    def __len__(self) -> int:
        return len(self.rids)

    def expand(self) -> Iterator[TupleDecayed]:
        """Per-tuple :class:`TupleDecayed` events, ascending rid order."""
        for rid, old, new in zip(self.rids, self.old_freshness, self.new_freshness):
            yield TupleDecayed(self.table, self.tick, rid, old, new, self.fungus)


@dataclass(frozen=True)
class TupleEvicted(Event):
    """A tuple left R. ``reason`` is "decay", "consume", or "manual"."""

    rid: int
    reason: str
    values: tuple = field(default=())


@dataclass(frozen=True)
class TupleEvictedBatch(Event):
    """One storage delete took these tuples out of R (``len > 0``).

    The one eviction event: policy eviction, ``CONSUME``, ``DELETE`` and
    ``drop_table`` all publish it, once per ``DecayingTable.evict`` (the
    one way out of R), with the cause ``evict`` was given as ``reason``.
    ``rids`` is the batch in the order it was deleted; ``columns`` holds
    one list of the rows' last values per storage column (schema order),
    aligned with ``rids``. The bus counts it as ``len(event)``
    :class:`TupleEvicted` events and delivers its :meth:`expand` to
    subscribers of that type.
    """

    rids: tuple
    reason: str
    columns: tuple

    per_tuple = TupleEvicted

    def __len__(self) -> int:
        return len(self.rids)

    def expand(self) -> Iterator[TupleEvicted]:
        """Per-tuple :class:`TupleEvicted` events, in batch order, each
        carrying its row's values as a schema-order tuple."""
        for rid, values in zip(self.rids, zip(*self.columns)):
            yield TupleEvicted(self.table, self.tick, rid, self.reason, values)


@dataclass(frozen=True)
class TupleConsumed(Event):
    """A consuming query carried this tuple into its answer set."""

    rid: int
    query: str


@dataclass(frozen=True)
class TupleConsumedBatch(Event):
    """One consuming statement carried these tuples into its answer set.

    Published once per consume, before the rows are deleted, so a
    per-tuple subscriber sees every :class:`TupleConsumed` of a
    statement before its :class:`TupleEvicted` events. ``rids`` is
    ascending. The bus counts it as ``len(event)``
    :class:`TupleConsumed` events and delivers its :meth:`expand` to
    subscribers of that type.
    """

    rids: tuple
    query: str

    per_tuple = TupleConsumed

    def __len__(self) -> int:
        return len(self.rids)

    def expand(self) -> Iterator[TupleConsumed]:
        """Per-tuple :class:`TupleConsumed` events, ascending rid order."""
        for rid in self.rids:
            yield TupleConsumed(self.table, self.tick, rid, self.query)


@dataclass(frozen=True)
class ConsumeAnalyzed(Event):
    """Tier-B static analysis ran over a consume statement.

    Published by ``EXPLAIN CONSUME`` and the ``strict_consume`` gate,
    *before* (and regardless of whether) anything executes. ``verdict``
    is the footprint classification (``none``/``partial``/``total``/
    ``invalid``); ``estimated_rows`` is the histogram-based footprint
    estimate (-1 when no estimate was possible).
    """

    verdict: str
    estimated_rows: int = -1
    sql: str = ""


@dataclass(frozen=True)
class QueryExecuted(Event):
    """The query-statistics store folded in one executed statement.

    Published (lazily) when ``FungusDB.enable_querystats`` is active,
    after the statement finished — ``table`` is the statement's target
    relation, ``kind`` its class (``select``/``consume``/``insert``/
    ``delete``), ``tracked_for_kind`` how many fingerprints of that
    kind the store now holds, and ``evicted`` how many cold
    fingerprints this observation pushed out of the bounded store. The
    metrics collector feeds the ``repro_query_*`` families from it.
    """

    kind: str
    fingerprint: str
    rows: int
    rows_consumed: int
    seconds: float
    tracked_for_kind: int = 0
    evicted: int = 0


@dataclass(frozen=True)
class SummaryCreated(Event):
    """A region was distilled into a TableSummary before leaving R."""

    rows: int
    reason: str


@dataclass(frozen=True)
class TickCompleted(Event):
    """One decay cycle finished for a table."""

    seeded: int
    decayed: int
    evicted: int


@dataclass(frozen=True)
class TableCompacted(Event):
    """Compaction renumbered a table's row space.

    ``remap`` carries the ``(old_rid, new_rid)`` pairs of surviving
    rows, so row-keyed subscribers (the forensics collector's live
    biographies) can follow their subjects across the renumbering.
    """

    remap: tuple = field(default=())


@dataclass(frozen=True)
class DeathRecorded(Event):
    """The forensics layer closed one tuple's biography.

    Published after the corresponding :class:`TupleEvicted`, with the
    forensic cause (``evicted``/``consumed``/``truncated``/
    ``restored-over``) already resolved — the metrics collector feeds
    ``repro_deaths_total`` from it.
    """

    rid: int
    cause: str
    fungus: str | None = None


@dataclass(frozen=True)
class AlertFired(Event):
    """A rot-rate alert rule started firing for a table."""

    rule: str
    value: float


@dataclass(frozen=True)
class AlertResolved(Event):
    """A previously firing rot-rate alert rule stopped matching."""

    rule: str


@dataclass(frozen=True)
class RestoreCompleted(Event):
    """A checkpoint restore finished re-inserting one table's rows.

    Restoring re-inserts the surviving rows as one
    :class:`TupleInsertedBatch`; those rows are not *new*, so metrics
    consumers subtract ``rows`` from their insert totals when this event
    arrives (otherwise every checkpoint/restore cycle would double-count
    the whole extent).
    """

    rows: int


E = TypeVar("E", bound=Event)


class EventBus:
    """Subscribe/publish hub with per-type handler lists and counters."""

    def __init__(self) -> None:
        self._handlers: dict[type, list[Callable[[Any], None]]] = {}
        self.counts: Counter[str] = Counter()

    def subscribe(self, event_type: Type[E], handler: Callable[[E], None]) -> None:
        """Run ``handler`` for every published event of ``event_type``."""
        self._handlers.setdefault(event_type, []).append(handler)

    def unsubscribe(self, event_type: Type[E], handler: Callable[[E], None]) -> None:
        """Remove a handler (no-op if absent)."""
        handlers = self._handlers.get(event_type, [])
        try:
            handlers.remove(handler)
        except ValueError:
            pass

    def publish_lazy(
        self, event_type: Type[E], factory: Callable[[], E], count: int = 1
    ) -> None:
        """Publish ``factory()`` only if someone listens for ``event_type``.

        The event lands in :attr:`counts` either way, so the ledger is
        identical whether or not the (possibly expensive) payload was
        ever built — the decay core uses this to skip assembling per-row
        tuples nobody would see. For an event with a
        :attr:`~Event.per_tuple` type, ``count`` is its length: a
        subscriber of either type gets the event built, and with none
        the pass costs one counter add.
        """
        per_tuple = event_type.per_tuple
        if self._handlers.get(event_type) or (
            per_tuple is not None and self._handlers.get(per_tuple)
        ):
            self.publish(factory())
            return
        self.counts[(per_tuple or event_type).__name__] += count

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to its type's handlers; count it either way.

        Fan-out is *complete*: a handler that raises cannot starve the
        handlers registered after it (the decay bookkeeping in
        :class:`~repro.core.policy.DecayPolicy` subscribes alongside
        user probes and must always see every eviction). Failures are
        collected and re-raised after the full fan-out — the original
        exception when one handler failed, an
        :class:`~repro.errors.EventFanoutError` when several did.

        An event with a :attr:`~Event.per_tuple` type is counted as
        that many per-tuple events and, after its own handlers, expanded
        for the per-tuple type's handlers (if any) under the same rule.
        """
        kind = type(event)
        per_tuple = kind.per_tuple
        handlers = self._handlers.get(kind)
        if per_tuple is None:
            self.counts[kind.__name__] += 1
            if not handlers:
                return
            row_handlers = None
        else:
            self.counts[per_tuple.__name__] += len(event)
            row_handlers = self._handlers.get(per_tuple)
        failures: list[tuple[Callable[[Any], None], Exception]] = []
        if handlers:
            _deliver(handlers, event, failures)
        if row_handlers:
            for sub in event.expand():
                _deliver(row_handlers, sub, failures)
        if failures:
            if len(failures) == 1:
                raise failures[0][1]
            raise EventFanoutError(kind.__name__, failures) from failures[0][1]


def _deliver(
    handlers: list[Callable[[Any], None]],
    event: Event,
    failures: list[tuple[Callable[[Any], None], Exception]],
) -> None:
    """Run every handler on ``event``, collecting the ones that raise."""
    for handler in list(handlers):
        try:
            handler(event)
        except Exception as exc:
            failures.append((handler, exc))
