"""DecayingTable batch mutators: outcomes, coalesced events, routing."""

import math
import threading

import pytest

import repro.core.table as core_table
from repro.core.db import FungusDB
from repro.core.events import TupleDecayedBatch
from repro.core.table import BatchOutcome, DecayingTable
from repro.errors import DecayError, StorageError
from repro.fungi import LinearDecayFungus
from repro.storage import RowSet, Schema
from repro.storage.stats import planner_stats


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
        assert table.bus.counts["TupleDecayed"] == 0

    def test_dead_rid_raises(self, table):
        from repro.storage import RowSet

        table.evict(RowSet([3]), "manual")
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

    def test_scalar_mutator_publishes_the_one_row_batch(self, table):
        batches = []
        table.bus.subscribe(TupleDecayedBatch, batches.append)
        table.decay_many([2, 5], 0.25, "t")
        table.decay(6, 0.25, "t")
        assert [batch.rids for batch in batches] == [(2, 5), (6,)]
        assert (batches[1].old_freshness, batches[1].new_freshness) == ((1.0,), (0.75,))
        assert table.bus.counts["TupleDecayed"] == 3

    def test_counts_ledger_without_subscribers(self, table):
        """publish_lazy skips payload construction but still counts."""
        table.decay_many([0, 1], 0.1, "t")
        assert table.bus.counts["TupleDecayed"] == 2

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
        table.evict(table.exhausted, "decay")
        assert sorted(table.exhausted) == []
        assert not table.storage.is_live(0)
        assert table.extent == 5

    def test_noop_when_none_exhausted(self, table):
        table.evict(table.exhausted, "decay")
        assert table.bus.counts["TupleEvicted"] == 0
        assert table.extent == 8


class TestOneWritePath:
    """Every freshness write goes through one check, one store, one event."""

    def _linear_db(self, rows: int):
        db = FungusDB(seed=0)
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.3))
        db.insert_many("r", [{"v": i} for i in range(rows)])
        return db

    def test_vector_decay_refreshes_planner_estimates(self):
        db = self._linear_db(100)
        storage = db.tables["r"].storage
        assert planner_stats(storage).column("f").max_value == 1.0
        db.tick(1)
        assert planner_stats(storage).column("f").max_value == 0.7
        report = db.explain_consume("CONSUME SELECT * FROM r WHERE f > 0.9")
        assert report.estimated_rows == 0

    def test_race_probe_sees_vector_decay(self):
        db = self._linear_db(100)
        probe = db.enable_race_probe(mode="record")
        table = db.tables["r"]
        table.decay_many([0], 0.1, "t")  # claims ownership on this thread
        thread = threading.Thread(
            target=lambda: table.decay_many(list(range(100)), 0.1, "t")
        )
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert [v.op for v in probe.violations] == ["write_rows"]

    @pytest.mark.parametrize(
        "write",
        [
            lambda t: t.set_freshness(0, math.nan),
            lambda t: t.decay_many(list(range(8)), math.nan, "t"),
            lambda t: t.set_freshness_many([0], [True]),
            lambda t: t.set_freshness_many(list(range(8)), [0.5] * 7 + [math.nan]),
            lambda t: t.set_freshness_many([0, 1], ["0.5", 0.5]),
        ],
        ids=["scalar-nan", "decay-nan-amount", "bool-value", "nan-value", "str-value"],
    )
    def test_bad_input_raises_and_writes_nothing(self, table, write):
        table.decay_many([0, 1], 1.0, "t")
        before = (
            [table.freshness(rid) for rid in range(8)],
            sorted(table.exhausted),
            dict(table.bus.counts),
        )
        with pytest.raises(DecayError):
            write(table)
        after = (
            [table.freshness(rid) for rid in range(8)],
            sorted(table.exhausted),
            dict(table.bus.counts),
        )
        assert after == before

    def test_infinities_still_clamp(self, table):
        table.set_freshness_many([0, 1], [-math.inf, math.inf])
        assert (table.freshness(0), table.freshness(1)) == (0.0, 1.0)
        assert sorted(table.exhausted) == [0]

    @pytest.mark.parametrize("force_vector", [False, True])
    def test_dead_rid_changes_nothing(self, table, monkeypatch, force_vector):
        if force_vector:
            monkeypatch.setattr(core_table, "_SMALL_BATCH", 0)
        table.evict(RowSet([3]), "manual")
        table.decay_many([0], 1.0, "t")
        before = (
            table.storage.freshness_array().tolist(),
            sorted(table.exhausted),
            dict(table.bus.counts),
        )
        with pytest.raises(StorageError):
            table.set_freshness_many([0, 2, 3], [0.5, 0.0, 0.5])
        after = (
            table.storage.freshness_array().tolist(),
            sorted(table.exhausted),
            dict(table.bus.counts),
        )
        assert after == before

    @pytest.mark.parametrize(
        "scalar, batch, operand",
        [
            ("set_freshness", "set_freshness_many", 0.25),
            ("set_freshness", "set_freshness_many", 0.0),
            ("set_freshness", "set_freshness_many", 1.0),
            ("decay", "decay_many", 0.4),
            ("decay", "decay_many", 1.5),
            ("scale_freshness", "scale_many", 0.5),
            ("scale_freshness", "scale_many", 0.0),
        ],
    )
    @pytest.mark.parametrize("rid", [1, 2, 4])
    def test_scalar_is_the_one_row_batch(self, clock, scalar, batch, operand, rid):
        """Row 1 is pinned, row 2 is exhausted, row 4 is at 0.5."""
        states = []
        for one_row in (False, True):
            t = DecayingTable("r", Schema.of(v="int"), clock)
            t.insert_many([{"v": i} for i in range(8)])
            t.pin(1)
            t.decay_many([2], 1.0, "t")
            t.set_freshness_many([4], [0.5], "t")
            events = []
            t.bus.subscribe(TupleDecayedBatch, events.append)
            if one_row:
                arg = [operand] if batch == "set_freshness_many" else operand
                getattr(t, batch)([rid], arg, "t")
                returned = t.freshness(rid)
            else:
                returned = getattr(t, scalar)(rid, operand, "t")
            states.append(
                (
                    returned,
                    [t.freshness(r) for r in range(8)],
                    sorted(t.exhausted),
                    sorted(t.pinned),
                    events,
                    t.bus.counts["TupleDecayed"],
                )
            )
        assert states[0] == states[1]
