"""Known-bad fixture: an event constructed but never published.

A dropped event is an invisible state change — metrics, forensics and
probes all miss it.
"""

from repro.core.events import TupleEvictedBatch, TupleInsertedBatch


def evict(bus, table: str, tick: float, rid: int) -> None:
    TupleEvictedBatch(table, tick, (rid,), "decay", ())  # flagged: dropped
    event = TupleInsertedBatch(table, tick, rid, rid + 1)  # flagged: never published
    del event


def evict_published(bus, table: str, tick: float, rid: int) -> None:
    bus.publish(TupleEvictedBatch(table, tick, (rid,), "decay", ()))  # fine
    pending = TupleInsertedBatch(table, tick, rid, rid + 1)  # fine: published below
    bus.publish(pending)


def make_event(table: str, tick: float, rid: int) -> TupleInsertedBatch:
    return TupleInsertedBatch(table, tick, rid, rid + 1)  # fine: escapes to caller
