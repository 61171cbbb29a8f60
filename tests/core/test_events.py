"""Tests for repro.core.events."""

from repro.core.events import (
    EventBus,
    TickCompleted,
    TupleDecayedBatch,
    TupleEvictedBatch,
    TupleInfectedBatch,
    TupleInsertedBatch,
)
from repro.core.table import DecayingTable
from repro.storage import Schema


def _inserted(start: int = 1, stop: int = 2) -> TupleInsertedBatch:
    return TupleInsertedBatch("r", 0.0, start, stop)


class TestEventBus:
    def test_publish_to_matching_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TupleInsertedBatch, seen.append)
        event = _inserted()
        bus.publish(event)
        assert seen == [event]

    def test_other_types_not_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TupleInsertedBatch, seen.append)
        bus.publish(TupleEvictedBatch("r", 0.0, (1,), "decay", ((0.0,),)))
        assert seen == []

    def test_counts_all_published(self):
        bus = EventBus()
        bus.publish(_inserted(1, 2))
        bus.publish(_inserted(2, 3))
        bus.publish(TupleEvictedBatch("r", 0.0, (1,), "decay", ((0.0,),)))
        assert bus.counts["TupleInserted"] == 2
        assert bus.counts["TupleEvicted"] == 1

    def test_batches_count_tuples_under_their_ledger_key(self):
        bus = EventBus()
        bus.publish(_inserted(0, 5))
        bus.publish(TickCompleted("r", 1.0, seeded=0, decayed=0, evicted=0))
        assert bus.counts == {"TupleInserted": 5, "TickCompleted": 1}
        assert "TupleInsertedBatch" not in bus.counts

    def test_multiple_handlers(self):
        bus = EventBus()
        a, b = [], []
        bus.subscribe(TupleDecayedBatch, a.append)
        bus.subscribe(TupleDecayedBatch, b.append)
        bus.publish(TupleDecayedBatch("r", 0.0, (1,), (1.0,), (0.5,), "x"))
        assert len(a) == len(b) == 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TupleInsertedBatch, seen.append)
        bus.unsubscribe(TupleInsertedBatch, seen.append)
        bus.publish(_inserted())
        assert seen == []

    def test_unsubscribe_absent_is_noop(self):
        EventBus().unsubscribe(TupleInsertedBatch, lambda e: None)

    def test_events_are_frozen(self):
        event = _inserted()
        import dataclasses

        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            event.start = 2


class TestCompleteFanout:
    """A raising subscriber must not starve handlers behind it."""

    def _crash(self, event):
        raise RuntimeError("subscriber died")

    def test_later_handlers_still_run(self):
        import pytest

        bus = EventBus()
        seen = []
        bus.subscribe(TupleInsertedBatch, self._crash)
        bus.subscribe(TupleInsertedBatch, seen.append)
        event = _inserted()
        with pytest.raises(RuntimeError, match="subscriber died"):
            bus.publish(event)
        assert seen == [event]

    def test_single_failure_reraises_original(self):
        import pytest

        bus = EventBus()
        bus.subscribe(TupleInsertedBatch, self._crash)
        bus.subscribe(TupleInsertedBatch, lambda e: None)
        with pytest.raises(RuntimeError, match="subscriber died"):
            bus.publish(_inserted())

    def test_multiple_failures_raise_fanout_error(self):
        import pytest

        from repro.errors import EventFanoutError

        bus = EventBus()
        seen = []

        def crash_too(event):
            raise ValueError("second casualty")

        bus.subscribe(TupleInsertedBatch, self._crash)
        bus.subscribe(TupleInsertedBatch, seen.append)
        bus.subscribe(TupleInsertedBatch, crash_too)
        with pytest.raises(EventFanoutError) as excinfo:
            bus.publish(_inserted())
        assert len(seen) == 1  # the healthy middle handler was reached
        assert len(excinfo.value.failures) == 2
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_counts_increment_even_when_handler_raises(self):
        import pytest

        bus = EventBus()
        bus.subscribe(TupleInsertedBatch, self._crash)
        with pytest.raises(RuntimeError):
            bus.publish(_inserted())
        assert bus.counts["TupleInserted"] == 1


class TestInfectionBatch:
    """One cycle's infections: one event, counted per tuple."""

    def _batch(self) -> TupleInfectedBatch:
        origins = ("seed", "seed", "spread", "spread")
        return TupleInfectedBatch("r", 3.0, (7, 2, 6, 9), origins, (None, None, 7, 7), "egi")

    def test_ledger_counts_tuples_with_or_without_subscribers(self):
        quiet, loud = EventBus(), EventBus()
        seen: list = []
        built: list = []
        loud.subscribe(TupleInfectedBatch, seen.append)

        def factory() -> TupleInfectedBatch:
            built.append(1)
            return self._batch()

        for bus in (quiet, loud):
            bus.publish_lazy(TupleInfectedBatch, factory, 4)
        assert quiet.counts == loud.counts == {"TupleInfected": 4}
        assert seen == [self._batch()]
        assert len(built) == 1  # the quiet bus never built the payload

    def test_mark_infected_is_the_batch_of_one(self, clock):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        table.insert_many([{"v": 1}, {"v": 2}])
        batches: list = []
        table.bus.subscribe(TupleInfectedBatch, batches.append)
        table.mark_infected(1, "egi", origin="spread", source=0)
        table.mark_infected_many([], "egi", [], [])
        assert batches == [
            TupleInfectedBatch(table.name, clock.now, (1,), ("spread",), (0,), "egi")
        ]
        assert table.bus.counts["TupleInfected"] == 1
