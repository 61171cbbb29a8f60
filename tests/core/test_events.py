"""Tests for repro.core.events."""

from repro.core.events import (
    EventBus,
    TupleDecayed,
    TupleEvicted,
    TupleInfected,
    TupleInfectedBatch,
    TupleInserted,
)
from repro.core.table import DecayingTable
from repro.storage import Schema


class TestEventBus:
    def test_publish_to_matching_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TupleInserted, seen.append)
        event = TupleInserted("r", 0.0, rid=1)
        bus.publish(event)
        assert seen == [event]

    def test_other_types_not_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TupleInserted, seen.append)
        bus.publish(TupleEvicted("r", 0.0, rid=1, reason="decay"))
        assert seen == []

    def test_counts_all_published(self):
        bus = EventBus()
        bus.publish(TupleInserted("r", 0.0, rid=1))
        bus.publish(TupleInserted("r", 0.0, rid=2))
        bus.publish(TupleEvicted("r", 0.0, rid=1, reason="decay"))
        assert bus.counts["TupleInserted"] == 2
        assert bus.counts["TupleEvicted"] == 1

    def test_multiple_handlers(self):
        bus = EventBus()
        a, b = [], []
        bus.subscribe(TupleDecayed, a.append)
        bus.subscribe(TupleDecayed, b.append)
        bus.publish(TupleDecayed("r", 0.0, rid=1, old_freshness=1.0, new_freshness=0.5, fungus="x"))
        assert len(a) == len(b) == 1

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(TupleInserted, seen.append)
        bus.unsubscribe(TupleInserted, seen.append)
        bus.publish(TupleInserted("r", 0.0, rid=1))
        assert seen == []

    def test_unsubscribe_absent_is_noop(self):
        EventBus().unsubscribe(TupleInserted, lambda e: None)

    def test_events_are_frozen(self):
        event = TupleInserted("r", 0.0, rid=1)
        import dataclasses

        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            event.rid = 2


class TestCompleteFanout:
    """A raising subscriber must not starve handlers behind it."""

    def _crash(self, event):
        raise RuntimeError("subscriber died")

    def test_later_handlers_still_run(self):
        import pytest

        bus = EventBus()
        seen = []
        bus.subscribe(TupleInserted, self._crash)
        bus.subscribe(TupleInserted, seen.append)
        event = TupleInserted("r", 0.0, rid=1)
        with pytest.raises(RuntimeError, match="subscriber died"):
            bus.publish(event)
        assert seen == [event]

    def test_single_failure_reraises_original(self):
        import pytest

        bus = EventBus()
        bus.subscribe(TupleInserted, self._crash)
        bus.subscribe(TupleInserted, lambda e: None)
        with pytest.raises(RuntimeError, match="subscriber died"):
            bus.publish(TupleInserted("r", 0.0, rid=1))

    def test_multiple_failures_raise_fanout_error(self):
        import pytest

        from repro.errors import EventFanoutError

        bus = EventBus()
        seen = []

        def crash_too(event):
            raise ValueError("second casualty")

        bus.subscribe(TupleInserted, self._crash)
        bus.subscribe(TupleInserted, seen.append)
        bus.subscribe(TupleInserted, crash_too)
        with pytest.raises(EventFanoutError) as excinfo:
            bus.publish(TupleInserted("r", 0.0, rid=1))
        assert len(seen) == 1  # the healthy middle handler was reached
        assert len(excinfo.value.failures) == 2
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_counts_increment_even_when_handler_raises(self):
        import pytest

        bus = EventBus()
        bus.subscribe(TupleInserted, self._crash)
        with pytest.raises(RuntimeError):
            bus.publish(TupleInserted("r", 0.0, rid=1))
        assert bus.counts["TupleInserted"] == 1


class TestInfectionBatch:
    """One cycle's infections: counted per tuple, expanded in order."""

    def _batch(self) -> TupleInfectedBatch:
        origins = ("seed", "seed", "spread", "spread")
        return TupleInfectedBatch("r", 3.0, (7, 2, 6, 9), origins, (None, None, 7, 7), "egi")

    def test_expand_keeps_infection_order(self):
        batch = self._batch()
        assert len(batch) == 4
        assert list(batch.expand()) == [
            TupleInfected("r", 3.0, 7, "egi", "seed", None),
            TupleInfected("r", 3.0, 2, "egi", "seed", None),
            TupleInfected("r", 3.0, 6, "egi", "spread", 7),
            TupleInfected("r", 3.0, 9, "egi", "spread", 7),
        ]

    def test_ledger_counts_tuples_with_or_without_subscribers(self):
        quiet, loud = EventBus(), EventBus()
        seen: list = []
        loud.subscribe(TupleInfected, seen.append)
        for bus in (quiet, loud):
            bus.publish_lazy(TupleInfectedBatch, self._batch, 4)
        assert quiet.counts == loud.counts == {"TupleInfected": 4}
        assert seen == list(self._batch().expand())

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
