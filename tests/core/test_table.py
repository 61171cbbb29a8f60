"""Tests for repro.core.table (DecayingTable)."""

import random

import pytest

from repro.core.events import TupleDecayedBatch, TupleEvictedBatch, TupleInsertedBatch
from repro.core.table import DecayingTable
from repro.errors import DecayError, StorageError
from repro.storage import RowSet, Schema


class TestSchemaRules:
    def test_reserved_columns_rejected(self, clock):
        with pytest.raises(DecayError, match="reserved"):
            DecayingTable("r", Schema.of(t="int"), clock)
        with pytest.raises(DecayError, match="reserved"):
            DecayingTable("r", Schema.of(f="float"), clock)

    def test_storage_schema_prepends_t_f(self, decaying):
        assert decaying.storage.schema.names == ("t", "f", "v")

    def test_custom_column_names(self, clock):
        table = DecayingTable(
            "r", Schema.of(t_orig="int"), clock, time_column="ts", freshness_column="fresh"
        )
        rid = table.insert({"t_orig": 1})
        assert table.storage.schema.names[0] == "ts"
        assert table.freshness(rid) == 1.0


class TestInsert:
    def test_stamps_time_and_freshness(self, clock, decaying):
        clock.advance(5)
        rid = decaying.insert({"v": 42})
        assert decaying.inserted_at(rid) == 5.0
        assert decaying.freshness(rid) == 1.0

    def test_age(self, clock, decaying):
        clock.advance(7)
        assert decaying.ages_of([0]).tolist() == [7.0]

    def test_insert_publishes_event(self, decaying):
        seen = []
        decaying.bus.subscribe(TupleInsertedBatch, seen.append)
        decaying.insert({"v": 1})
        assert [len(e) for e in seen] == [1]

    def test_insert_many(self, decaying):
        rows = decaying.insert_many([{"v": 100}, {"v": 101}])
        assert len(rows) == 2
        assert len(decaying) == 12

    def test_attributes_of(self, decaying):
        assert decaying.attributes_of(3) == {"v": 3}

    def test_row_dict_includes_t_f(self, decaying):
        assert decaying.row_dict(3) == {"t": 0.0, "f": 1.0, "v": 3}


class TestFreshnessMutation:
    def test_decay(self, decaying):
        new = decaying.decay(0, 0.3, "test")
        assert new == pytest.approx(0.7)
        assert decaying.freshness(0) == pytest.approx(0.7)

    def test_decay_negative_rejected(self, decaying):
        with pytest.raises(DecayError):
            decaying.decay(0, -0.1, "test")

    def test_decay_publishes_event(self, decaying):
        seen = []
        decaying.bus.subscribe(TupleDecayedBatch, seen.append)
        decaying.decay(0, 0.3, "spore")
        assert seen[0].fungus == "spore"
        assert seen[0].old_freshness == (1.0,)

    def test_no_event_when_unchanged(self, decaying):
        seen = []
        decaying.bus.subscribe(TupleDecayedBatch, seen.append)
        decaying.set_freshness(0, 1.0)
        assert seen == []

    def test_exhausted_tracking(self, decaying):
        decaying.decay(0, 1.0, "test")
        assert decaying.exhausted == RowSet([0])
        assert len(decaying) == 10  # still live until evicted

    def test_refresh_leaves_exhausted_set(self, decaying):
        decaying.decay(0, 1.0, "test")
        decaying.set_freshness(0, 0.5, "refresh")
        assert decaying.exhausted == RowSet.empty()

    def test_scale_freshness(self, decaying):
        decaying.scale_freshness(0, 0.5, "test")
        assert decaying.freshness(0) == 0.5

    def test_scale_factor_validated(self, decaying):
        with pytest.raises(DecayError):
            decaying.scale_freshness(0, 1.5, "test")

    def test_freshness_values_order(self, decaying):
        decaying.decay(3, 0.4, "test")
        values = decaying.freshness_values()
        assert values[3] == pytest.approx(0.6)
        assert len(values) == 10


class TestPinning:
    def test_pinned_rows_resist_decay(self, decaying):
        decaying.pin(2)
        decaying.decay(2, 0.9, "test")
        assert decaying.freshness(2) == 1.0

    def test_pinned_rows_can_gain(self, decaying):
        decaying.set_freshness(2, 0.5)
        decaying.pin(2)
        decaying.set_freshness(2, 0.8)
        assert decaying.freshness(2) == 0.8

    def test_unpin_restores_decay(self, decaying):
        decaying.pin(2)
        decaying.unpin(2)
        decaying.decay(2, 0.4, "test")
        assert decaying.freshness(2) == pytest.approx(0.6)

    def test_pin_dead_row_rejected(self, decaying):
        decaying.evict(RowSet([2]), "manual")
        import pytest as _pytest

        with _pytest.raises(Exception):
            decaying.pin(2)

    def test_eviction_clears_pin(self, decaying):
        decaying.pin(2)
        decaying.evict(RowSet([2]), "manual")
        assert len(decaying.pinned) == 0

    def test_is_pinned(self, decaying):
        decaying.pin(2)
        assert decaying.is_pinned(2)
        assert not decaying.is_pinned(3)


class TestEviction:
    def test_evict_publishes_row_values(self, decaying):
        seen = []
        decaying.bus.subscribe(TupleEvictedBatch, seen.append)
        decaying.evict(RowSet([1, 2]), "decay")
        (event,) = seen
        assert event.rids == (1, 2)
        assert list(event.columns[2]) == [1, 2]  # v column
        assert len(decaying) == 8

    def test_evict_publishes_reason(self, decaying):
        seen = []
        decaying.bus.subscribe(TupleEvictedBatch, seen.append)
        decaying.evict(RowSet([1]), "consume")
        assert seen[0].reason == "consume"
        assert list(seen[0].columns[2]) == [1]  # v column

    def test_evict_clears_exhausted(self, decaying):
        decaying.decay(1, 1.0, "test")
        decaying.evict(RowSet([1]), "decay")
        assert decaying.exhausted == RowSet.empty()


class TestNavigationAndSampling:
    def test_oldest_live(self, decaying):
        assert decaying.oldest_live() == 0
        decaying.evict(RowSet([0, 1]), "decay")
        assert decaying.oldest_live() == 2

    def test_oldest_live_empty(self, clock):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        assert table.oldest_live() is None

    def test_sample_live_size(self, decaying):
        rng = random.Random(1)
        sample = decaying.sample_live(rng, 5)
        assert len(sample) == 5
        assert all(decaying.is_live(rid) for rid in sample)

    def test_sample_live_more_than_live(self, decaying):
        rng = random.Random(1)
        assert len(decaying.sample_live(rng, 100)) == 10

    def test_sample_live_with_many_tombstones(self, decaying):
        decaying.evict(RowSet(range(8)), "decay")
        rng = random.Random(2)
        sample = decaying.sample_live(rng, 2)
        assert sorted(sample) == [8, 9]

    def test_sample_live_empty(self, clock):
        table = DecayingTable("r", Schema.of(v="int"), clock)
        assert table.sample_live(random.Random(1), 3) == []


class TestCompaction:
    def test_compact_remaps_exhausted_and_pinned(self, decaying):
        decaying.decay(5, 1.0, "test")
        decaying.pin(7)
        decaying.evict(RowSet([0, 1]), "decay")
        decaying.compact()
        assert decaying.exhausted == RowSet([3])  # old rid 5
        assert decaying.pinned == RowSet([5])  # old rid 7


@pytest.mark.parametrize(
    "call",
    [
        lambda table: table.pin(True),
        lambda table: table.pin(1.5),
        lambda table: table.storage.delete_many([True]),
        lambda table: table.storage.delete_many([1.5]),
        lambda table: table.storage.delete_many([*range(2, 40), True]),
    ],
    ids=["pin-bool", "pin-float", "delete-bool", "delete-float", "delete-many-with-bool"],
)
def test_a_rid_that_is_not_an_integer_is_refused(clock, call):
    table = DecayingTable("r", Schema.of(v="int"), clock)
    table.insert_many({"v": v} for v in range(40))
    with pytest.raises(StorageError, match="not an integer|not integers"):
        call(table)
    assert len(table) == 40 and table.pinned_count == 0
