"""A delete batch costs one observer call and one event — and nobody can tell.

Seeded schedules mix EGI ticks (with compaction), inserts, SQL
``CONSUME``/``DELETE`` and pins on a table with a hash index and the
``t`` sorted index. After every step the consume and eviction batches,
walked row by row, carry each row's pre-delete values in batch order,
every consume batch comes before its eviction batch, the ledger counts
tuples, the indexes answer as
a filter over the live rows does, and the exhausted and pinned sets stay
inside the live extent. A bad batch changes nothing at all.
"""

import copy
import random

import numpy
import pytest

from repro.core.db import FungusDB
from repro.core.events import TupleConsumedBatch, TupleEvictedBatch
from repro.errors import StorageError
from repro.fungi import EGIFungus
from repro.storage import RowSet, Schema, Table

KEYS = 8


def _db(seed: int) -> FungusDB:
    db = FungusDB(seed=seed)
    db.create_table(
        "r",
        Schema.of(k="int", s="str"),
        fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.35),
        compact_every=5,
    )
    db.catalog.create_hash_index("r", "k")
    return db


def _insert(db: FungusDB, rng: random.Random) -> None:
    db.insert_many(
        "r",
        [{"k": rng.randrange(KEYS), "s": f"s{rng.randrange(99)}"} for _ in range(rng.randint(1, 40))],
    )


def _step(db: FungusDB, rng: random.Random) -> str:
    """One seeded mutation; returns its kind."""
    table = db.tables["r"]
    kind = rng.choice(["tick", "tick", "insert", "consume", "delete", "pin", "unpin"])
    live = table.storage.live_list()
    if kind == "tick":
        db.tick(rng.randint(1, 3))
    elif kind == "insert":
        _insert(db, rng)
    elif kind == "consume":
        op = rng.choice(["=", "<"])
        db.query(f"CONSUME SELECT k, s FROM r WHERE k {op} {rng.randrange(KEYS)}")
    elif kind == "delete":
        db.query(f"DELETE FROM r WHERE k = {rng.randrange(KEYS)}")
    elif kind == "pin" and live:
        table.pin(rng.choice(live))
    elif kind == "unpin" and live:
        table.unpin(rng.choice(live))
    return kind


class _Log:
    """Every consume/evict batch in delivery order, its rows walked as
    ``(kind, rid, reason)``, and each evicted row's values as read just
    before its delete."""

    def __init__(self, db: FungusDB, monkeypatch=None) -> None:
        self.batches: list = []
        self.tuples: list = []
        self.pre_delete: dict[int, tuple] = {}
        self.mismatches: list = []
        db.bus.subscribe(TupleEvictedBatch, self._on_evicted)
        db.bus.subscribe(TupleConsumedBatch, self._on_consumed)
        if monkeypatch is not None:
            storage = db.tables["r"].storage
            real = Table.delete_many

            def delete_many(table, rids):
                if table is storage:
                    self.pre_delete = {
                        rid: table.row(rid) for rid in rids if table.is_live(rid)
                    }
                return real(table, rids)

            monkeypatch.setattr(Table, "delete_many", delete_many)

    def _on_consumed(self, event: TupleConsumedBatch) -> None:
        self.batches.append(event)
        self.tuples.extend(("consumed", rid, None) for rid in event.rids)

    def _on_evicted(self, event: TupleEvictedBatch) -> None:
        self.batches.append(event)
        assert all(len(column) == len(event.rids) for column in event.columns)
        for rid, values in zip(event.rids, zip(*event.columns)):
            self.tuples.append(("evicted", rid, event.reason))
            if values != self.pre_delete.get(rid):
                self.mismatches.append((rid, values))


def _check_indexes(db: FungusDB) -> None:
    table = db.tables["r"]
    rows = list(table.storage.iter_rows())
    k_pos = table.storage.schema.index_of("k")
    hash_index = db.catalog.hash_index("r", "k")
    for key in range(KEYS):
        expected = RowSet(rid for rid, values in rows if values[k_pos] == key)
        assert hash_index.lookup(key) == expected
    assert len(hash_index) == len(rows)
    sorted_index = db.catalog.sorted_index("r", "t")
    assert sorted_index.ascending() == [
        rid for _, rid in sorted((values[0], rid) for rid, values in rows)
    ]
    now = db.clock.now
    for low, high in ((0.0, now), (now / 3, now / 2), (now, None), (None, now / 4)):
        expected = RowSet(
            rid
            for rid, values in rows
            if (low is None or values[0] >= low) and (high is None or values[0] <= high)
        )
        assert sorted_index.range(low, high) == expected


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_seeded_schedule_retires_batches_faithfully(seed, monkeypatch):
    rng = random.Random(seed)
    db = _db(seed)
    quiet = _db(seed)  # the same schedule with no subscriber
    quiet_rng = random.Random(seed)
    log = _Log(db, monkeypatch)
    table = db.tables["r"]
    _insert(db, rng), _insert(quiet, quiet_rng)
    for _ in range(60):
        seen_batches, seen_tuples = len(log.batches), len(log.tuples)
        kind = _step(db, rng)
        _step(quiet, quiet_rng)
        batches = log.batches[seen_batches:]
        tuples = log.tuples[seen_tuples:]
        assert len(tuples) == sum(len(batch) for batch in batches)
        assert log.mismatches == []
        if kind == "consume" and tuples:
            # one consume batch, then its one eviction batch of the same rows
            assert [type(batch) for batch in batches] == [
                TupleConsumedBatch,
                TupleEvictedBatch,
            ]
            consumed, evicted = batches
            assert consumed.rids == evicted.rids
            assert evicted.reason == "consume"
        if kind == "delete":
            assert {reason for _, _, reason in tuples} <= {"external"}
        _check_indexes(db)
        live = set(table.storage.live_list())
        assert set(table.exhausted) <= live
        assert set(table.pinned) <= live
    counts = db.bus.counts
    assert counts["TupleEvicted"] == sum(kind == "evicted" for kind, _, _ in log.tuples)
    assert counts["TupleConsumed"] == sum(kind == "consumed" for kind, _, _ in log.tuples)
    assert counts["TupleEvicted"] > 0 and counts["TupleConsumed"] > 0
    assert "TupleEvictedBatch" not in counts and "TupleConsumedBatch" not in counts
    assert counts == quiet.bus.counts
    assert db.tables["r"].rows() == quiet.tables["r"].rows()


class TestBadBatchChangesNothing:
    @staticmethod
    def _state(db: FungusDB, log: _Log):
        table = db.tables["r"]
        hash_index = db.catalog.hash_index("r", "k")
        sorted_index = db.catalog.sorted_index("r", "t")
        return (
            copy.deepcopy(hash_index._buckets),
            list(sorted_index._entries),
            set(sorted_index._dead),
            set(table._exhausted),
            set(table._pinned),
            table.storage.live_list().copy(),
            table.storage.tombstones,
            dict(db.bus.counts),
            len(log.batches),
            len(log.tuples),
        )

    @pytest.fixture
    def setup(self):
        db = _db(4)
        db.insert_many("r", [{"k": i % KEYS, "s": f"s{i}"} for i in range(40)])
        table = db.tables["r"]
        table.pin(3)
        table.decay_many([4, 5], 1.0, "manual")  # exhausted, not yet evicted
        table.evict(RowSet([7]), "manual")
        return db, _Log(db)

    @pytest.mark.parametrize(
        "batch",
        [[1, 7], [7], [3, 4, 99], [-1, 3], [3, 4, 3], [4, 4]],
        ids=["dead-last", "dead-only", "out-of-range", "negative", "duplicate", "twice"],
    )
    def test_bad_delete_batch(self, setup, batch):
        db, log = setup
        before = self._state(db, log)
        with pytest.raises(StorageError):
            db.tables["r"].storage.delete_many(batch)
        assert self._state(db, log) == before

    def test_bad_evict(self, setup):
        db, log = setup
        before = self._state(db, log)
        with pytest.raises(StorageError):
            db.tables["r"].evict(RowSet([3, 4, 7]), "decay")
        assert self._state(db, log) == before


def test_exhausted_and_pinned_rowsets_equal_checked_ones():
    db = _db(9)
    rng = random.Random(9)
    table = db.tables["r"]
    _insert(db, rng)
    pinned = exhausted = 0
    for _ in range(40):
        _step(db, rng)
        live = table.storage.live_list()
        table.decay_many(live[::7], 0.6, "manual")
        if live:
            table.pin(numpy.int64(live[-1]))  # stored as a plain int
        assert table.exhausted == RowSet(table._exhausted)
        assert table.pinned == RowSet(table._pinned)
        assert table.exhausted.rows == tuple(sorted(table._exhausted))
        pinned, exhausted = max(pinned, len(table.pinned)), max(exhausted, len(table.exhausted))
    assert db.policies["r"].stats.compactions > 0 and pinned > 1 and exhausted > 1
