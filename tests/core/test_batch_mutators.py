"""DecayingTable batch mutators: outcomes, coalesced events, routing."""

import pytest

import repro.core.table as core_table
from repro.core.events import TupleDecayed, TupleDecayedBatch
from repro.core.table import BatchOutcome, DecayingTable
from repro.errors import StorageError
from repro.storage import Schema


@pytest.fixture
def table(clock) -> DecayingTable:
    t = DecayingTable("r", Schema.of(v="int"), clock)
    for i in range(8):
        t.insert({"v": i})
    return t


class TestDecayMany:
    def test_outcome_accounting(self, table):
        out = table.decay_many([0, 1, 2], 0.25, "t")
        assert isinstance(out, BatchOutcome)
        assert out.processed == 3
        assert out.changed == 3
        assert out.newly_exhausted == 0
        assert out.removed == pytest.approx(0.75)
        assert all(table.freshness(rid) == 0.75 for rid in (0, 1, 2))

    def test_exhaustion_tracked(self, table):
        out = table.decay_many([0, 1], 1.0, "t")
        assert out.newly_exhausted == 2
        assert sorted(table.exhausted) == [0, 1]
        assert table.freshness(0) == 0.0

    def test_revival_clears_exhausted(self, table):
        table.decay_many([0], 1.0, "t")
        table.set_freshness_many([0], [0.5], "t")
        assert sorted(table.exhausted) == []

    def test_empty_batch_is_noop(self, table):
        out = table.decay_many([], 0.5, "t")
        assert out.processed == 0
        assert table.bus.counts["TupleDecayedBatch"] == 0

    def test_dead_rid_raises(self, table):
        from repro.storage import RowSet

        table.evict(RowSet([3]), reason="manual")
        with pytest.raises(StorageError):
            table.decay_many([2, 3], 0.1, "t")

    def test_pinned_rows_skip_lowering(self, table):
        table.pin(1)
        table.decay_many([0, 1, 2], 0.4, "t")
        assert table.freshness(1) == 1.0
        assert table.freshness(0) == 0.6

    def test_scale_many_validates_factor(self, table):
        with pytest.raises(Exception):
            table.scale_many([0], 1.5, "t")
        table.scale_many([0], 0.5, "t")
        assert table.freshness(0) == 0.5


class TestCoalescedEvents:
    def test_one_batch_event_changed_rows_only(self, table):
        events = []
        table.bus.subscribe(TupleDecayedBatch, events.append)
        table.decay_many([0], 1.0, "t")  # row 0 -> 0.0
        events.clear()
        # row 0 is dead-fresh already: decaying it again changes nothing
        table.set_freshness_many([0, 1, 2], [0.0, 0.4, 1.0], "t")
        (event,) = events
        assert event.rids == (1,)
        assert event.old_freshness == (1.0,)
        assert event.new_freshness == (0.4,)
        assert event.fungus == "t"

    def test_expand_matches_scalar_event_shape(self, table):
        batches, scalars = [], []
        table.bus.subscribe(TupleDecayedBatch, batches.append)
        table.bus.subscribe(TupleDecayed, scalars.append)
        table.decay_many([2, 5], 0.25, "t")
        (batch,) = batches
        expanded = list(batch.expand())
        assert [e.rid for e in expanded] == [2, 5]
        assert all(isinstance(e, TupleDecayed) for e in expanded)
        # the scalar mutator publishes the same per-row payload
        table.decay(6, 0.25, "t")
        (scalar,) = scalars
        assert (scalar.old_freshness, scalar.new_freshness) == (1.0, 0.75)

    def test_counts_ledger_without_subscribers(self, table):
        """publish_lazy skips payload construction but still counts."""
        table.decay_many([0, 1], 0.1, "t")
        assert table.bus.counts["TupleDecayedBatch"] == 1

    def test_event_rids_stay_ascending_after_filtering(self, table):
        """Callers pass ascending rids; the changed-rows filter keeps
        that order even when interior rows are dropped from the event."""
        table.pin(3)
        events = []
        table.bus.subscribe(TupleDecayedBatch, events.append)
        table.decay_many([1, 3, 5], 0.2, "t")
        assert events[0].rids == (1, 5)


class TestKernelRouting:
    def test_small_batches_route_to_scalar_kernel(self, table, monkeypatch):
        """Below _SMALL_BATCH the python kernel runs."""
        calls = []
        orig = DecayingTable._apply_batch_py
        monkeypatch.setattr(
            DecayingTable,
            "_apply_batch_py",
            lambda self, *a: calls.append(1) or orig(self, *a),
        )
        table.decay_many([0, 1], 0.1, "t")
        assert calls, "small batch should use the scalar kernel"

    def test_threshold_zero_forces_vector_kernel(self, table, monkeypatch):
        monkeypatch.setattr(core_table, "_SMALL_BATCH", 0)
        calls = []
        orig = DecayingTable._apply_batch_vec
        monkeypatch.setattr(
            DecayingTable,
            "_apply_batch_vec",
            lambda self, *a: calls.append(1) or orig(self, *a),
        )
        table.decay_many([0, 1], 0.1, "t")
        assert calls, "threshold 0 should force the vector kernel"

    def test_backends_agree_on_a_simple_batch(self, clock, monkeypatch):
        """The vector kernel and the scalar reference write the same bits."""
        tables = []
        for threshold in (0, 41):
            monkeypatch.setattr(core_table, "_SMALL_BATCH", threshold)
            t = DecayingTable("r", Schema.of(v="int"), clock)
            for i in range(40):
                t.insert({"v": i})
            t.decay_many(list(range(40)), 0.125, "t")
            tables.append([t.freshness(r) for r in range(40)])
        assert tables[0] == tables[1]


class TestEvictExhaustedBatch:
    def test_evicts_all_exhausted(self, table):
        table.decay_many([0, 4, 7], 1.0, "t")
        assert len(table.exhausted) == 3
        table.evict(table.exhausted, "decay", collect_values=False)
        assert sorted(table.exhausted) == []
        assert not table.storage.is_live(0)
        assert table.extent == 5

    def test_noop_when_none_exhausted(self, table):
        assert table.evict(table.exhausted, "decay", collect_values=False) == []
        assert table.extent == 8
