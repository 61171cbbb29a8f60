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
with the rows' last values by column). The batch is the only shape a
step has: a subscriber that needs rows walks the batch itself. Yet the
lifecycle ledger counts tuples, not deliveries: a batch of *n* advances
the count under its :attr:`~Event.ledger_key` (``"TupleInserted"``,
``"TupleEvicted"``…) by *n*. By the time any handler runs the whole
batch has happened: a handler looking at row *i* may already see rows
*i+1…* inserted or gone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Type, TypeVar

from repro.errors import EventFanoutError


@dataclass(frozen=True)
class Event:
    """Base class for all decay-core events."""

    table: str
    tick: float

    #: set by a batch event: the bus counts ``len(event)`` tuples under
    #: this name instead of one event under the class name
    ledger_key: ClassVar[str | None] = None


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

    ledger_key = "TupleInserted"

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class TupleInfectedBatch(Event):
    """One fungus cycle's infections, in infection order (``len > 0``).

    ``rids``, ``origins`` and ``sources`` align: EGI publishes its seeds
    in draw order, then its spread frontier (span by span, the row
    before a spot ahead of the row after it); a single infection
    (``DecayingTable.mark_infected``) is a batch of one. ``origins[i]``
    is ``"seed"`` (age-biased selection landed on ``rids[i]``) or
    ``"spread"`` (infection grew in from neighbour row ``sources[i]`` —
    the edge the forensics layer chains into infection lineage).
    """

    rids: tuple
    origins: tuple
    sources: tuple
    fungus: str

    ledger_key = "TupleInfected"

    def __len__(self) -> int:
        return len(self.rids)


@dataclass(frozen=True)
class TupleDecayedBatch(Event):
    """One freshness write changed these tuples' freshness (``len > 0``).

    The one decay event: the batch mutators and the scalar ones (a
    batch of one row) all publish it. ``rids`` is ascending,
    ``old_freshness``/``new_freshness`` align with it, and only rows
    whose freshness actually changed (dropped, or rose on a refresh)
    are included.
    """

    rids: tuple
    old_freshness: tuple
    new_freshness: tuple
    fungus: str

    ledger_key = "TupleDecayed"

    def __len__(self) -> int:
        return len(self.rids)


@dataclass(frozen=True)
class TupleEvictedBatch(Event):
    """One storage delete took these tuples out of R (``len > 0``).

    The one eviction event: policy eviction, ``CONSUME``, ``DELETE`` and
    ``drop_table`` all publish it, once per ``DecayingTable.evict`` (the
    one way out of R), with the cause ``evict`` was given as ``reason``.
    ``rids`` is the batch in the order it was deleted; ``columns`` holds
    one list of the rows' last values per storage column (schema order),
    aligned with ``rids``.
    """

    rids: tuple
    reason: str
    columns: tuple

    ledger_key = "TupleEvicted"

    def __len__(self) -> int:
        return len(self.rids)


@dataclass(frozen=True)
class TupleConsumedBatch(Event):
    """One consuming statement carried these tuples into its answer set.

    Published once per consume, before the rows are deleted, so every
    subscriber sees a statement's consume batch before its eviction
    batch. ``rids`` is ascending.
    """

    rids: tuple
    query: str

    ledger_key = "TupleConsumed"

    def __len__(self) -> int:
        return len(self.rids)


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

    Published once per row while the forensics layer walks a
    :class:`TupleEvictedBatch`, with the forensic cause (``evicted``/
    ``consumed``/``truncated``/``restored-over``) already resolved — the
    metrics collector feeds ``repro_deaths_total`` from it.
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
        tuples nobody would see. For a batch event ``count`` is its
        length; with no subscriber the pass costs one counter add.
        """
        if self._handlers.get(event_type):
            self.publish(factory())
            return
        self.counts[event_type.ledger_key or event_type.__name__] += count

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to its type's handlers; count it either way.

        A batch event counts ``len(event)`` under its
        :attr:`~Event.ledger_key`, any other event one under its class
        name. Fan-out is *complete*: a handler that raises cannot starve
        the handlers registered after it (the decay bookkeeping in
        :class:`~repro.core.policy.DecayPolicy` subscribes alongside
        user probes and must always see every eviction). Failures are
        collected and re-raised after the full fan-out — the original
        exception when one handler failed, an
        :class:`~repro.errors.EventFanoutError` when several did.
        """
        kind = type(event)
        if kind.ledger_key is None:
            self.counts[kind.__name__] += 1
        else:
            self.counts[kind.ledger_key] += len(event)
        handlers = self._handlers.get(kind)
        if not handlers:
            return
        failures: list[tuple[Callable[[Any], None], Exception]] = []
        for handler in list(handlers):
            try:
                handler(event)
            except Exception as exc:
                failures.append((handler, exc))
        if failures:
            if len(failures) == 1:
                raise failures[0][1]
            raise EventFanoutError(kind.__name__, failures) from failures[0][1]
