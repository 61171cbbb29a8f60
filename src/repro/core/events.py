"""Typed event bus for the decay core.

Everything observable about a decaying table is an event: insertion,
infection, freshness decay, eviction, consumption, summarisation, tick
completion. Health metrics, the distiller, experiment probes and tests
all subscribe here instead of poking at internals.

Insertions are published once per batch (:class:`TupleInsertedBatch`, a
rid range), yet the lifecycle ledger counts tuples, not deliveries: a
batch of *n* advances ``counts["TupleInserted"]`` by *n*, its own
subscribers get the one event, and subscribers of the per-tuple
:class:`TupleInserted` still get one event per row in ascending rid
order — built by the bus, and only when such a subscriber exists. By
then the whole batch is in the table: a handler looking at row *i* may
already see rows *i+1…*. :class:`TupleDecayedBatch` predates this rule
and keeps its per-pass count.
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
class TupleDecayed(Event):
    """A tuple's freshness dropped."""

    rid: int
    old_freshness: float
    new_freshness: float
    fungus: str


@dataclass(frozen=True)
class TupleDecayedBatch(Event):
    """One batch mutator pass changed many tuples' freshness at once.

    The coalesced form of :class:`TupleDecayed`: ``rids`` is ascending,
    ``old_freshness``/``new_freshness`` align with it, and only rows
    whose freshness actually changed are included. Subscribers that
    need per-tuple provenance (metrics, forensics trajectories) call
    :meth:`expand` and handle each row exactly as they would a scalar
    :class:`TupleDecayed` — the expansion order (ascending rid) matches
    the order the scalar path would have published in.
    """

    rids: tuple
    old_freshness: tuple
    new_freshness: tuple
    fungus: str

    def expand(self) -> Iterator["TupleDecayed"]:
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
class TupleConsumed(Event):
    """A consuming query carried this tuple into its answer set."""

    rid: int
    query: str


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

    Restoring replays one :class:`TupleInserted` per surviving row;
    those rows are not *new*, so metrics consumers subtract ``rows``
    from their insert totals when this event arrives (otherwise every
    checkpoint/restore cycle would double-count the whole extent).
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

    def has_subscribers(self, event_type: Type[E]) -> bool:
        """True when at least one handler listens for ``event_type``.

        Publishers use this to skip building expensive event payloads
        (eviction value dicts) nobody would see.
        """
        return bool(self._handlers.get(event_type))

    def publish_lazy(self, event_type: Type[E], factory: Callable[[], E]) -> None:
        """Publish ``factory()`` only if someone listens for ``event_type``.

        The event still lands in :attr:`counts` either way, so the
        ledger is identical whether or not the (possibly expensive)
        payload was ever built — batch mutators use this to skip
        assembling per-row tuples nobody would see. Not for an event
        with a :attr:`~Event.per_tuple` type: its length is its ledger
        entry, so build it and :meth:`publish`.
        """
        if self._handlers.get(event_type):
            self.publish(factory())
            return
        self.counts[event_type.__name__] += 1

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
