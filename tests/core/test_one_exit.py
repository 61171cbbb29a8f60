"""One way out of R: every tuple leaves through ``DecayingTable.evict``.

Each cause of departure — SQL ``DELETE``, ``CONSUME``, decay, and
``drop_table`` — is driven from the public surface, and the cause shows
up the same way in all three places that record it: the
eviction batch's reason, the forensics death cause and the collector's
``reason`` label. No label outlives the statement that set it.
"""

import pytest

from repro.core.db import FungusDB
from repro.core.events import TupleEvictedBatch
from repro.fungi import LinearDecayFungus
from repro.obs.collector import BusCollector
from repro.query.executor import QueryEngine
from repro.storage import RowSet, Schema


def _db() -> tuple[FungusDB, BusCollector, list]:
    db = FungusDB(seed=3)
    db.create_table("r", Schema.of(k="int"), fungus=LinearDecayFungus(rate=0.3))
    db.enable_forensics()
    collector = BusCollector().attach(db)
    db.insert_many("r", [{"k": k} for k in range(10)])
    seen: list = []  # (rid, reason) per evicted row
    db.bus.subscribe(
        TupleEvictedBatch, lambda e: seen.extend((rid, e.reason) for rid in e.rids)
    )
    return db, collector, seen


def _causes(db: FungusDB) -> list[str]:
    return [record.cause for record in db.forensics.deaths("r")]


def _check_sets(db: FungusDB) -> None:
    table = db.tables.get("r")
    if table is not None:
        live = set(table.storage.live_list())
        assert set(table.exhausted) <= live
        assert set(table.pinned) <= live


def test_a_consume_label_does_not_leak_into_a_later_delete():
    db, _, seen = _db()
    db.query("CONSUME SELECT k FROM r WHERE k < 2")
    db.engine.execute("DELETE FROM r WHERE k > 7")
    assert seen == [
        (0, "consume"),
        (1, "consume"),
        (8, "external"),
        (9, "external"),
    ]
    assert _causes(db) == ["consumed", "consumed", "evicted", "evicted"]


@pytest.mark.parametrize(
    "act, reason, cause",
    [
        (lambda db: db.query("DELETE FROM r WHERE k >= 6"), "external", "evicted"),
        (lambda db: db.query("CONSUME SELECT k FROM r WHERE k >= 6"), "consume", "consumed"),
        (lambda db: db.tick(5), "decay", "evicted"),
        (lambda db: db.drop_table("r"), "truncate", "truncated"),
    ],
    ids=["delete", "consume", "tick", "drop_table"],
)
def test_each_cause_is_recorded_alike(act, reason, cause):
    db, collector, seen = _db()
    db.tables["r"].pin(7)
    db.tables["r"].decay_many([8, 9], 1.0, "manual")  # exhausted
    act(db)
    assert seen and {r for _, r in seen} == {reason}
    assert set(_causes(db)) == {cause}
    assert len(_causes(db)) == len(seen)
    registry = collector.registry
    assert registry.value("repro_evictions_total", table="r", reason=reason) == len(seen)
    _check_sets(db)


def test_evict_books_before_it_publishes():
    db, _, _ = _db()
    table = db.tables["r"]
    table.pin(2)
    table.decay_many([3], 1.0, "manual")
    states = []
    db.bus.subscribe(
        TupleEvictedBatch,
        lambda e: states.append((set(table.pinned), set(table.exhausted))),
    )
    table.evict(RowSet([2, 3]), "manual")
    assert states == [(set(), set())]


def test_decaying_table_does_not_observe_its_storage():
    db, _, _ = _db()
    assert db.tables["r"] not in db.tables["r"].storage._observers


@pytest.mark.parametrize(
    "where, index",
    [("k = 3", "hash(k="), ("t <= 0", "range(t ")],
    ids=["hash-index", "time-index"],
)
def test_one_rowset_serves_access_and_consume(where, index, monkeypatch):
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(k="int"))
    db.catalog.create_hash_index("r", "k")
    db.insert_many("r", [{"k": k % 5} for k in range(20)])
    db.tick(1)
    db.insert_many("r", [{"k": k % 5} for k in range(5)])
    accessed, removed = [], []
    db.engine.add_access_hook(lambda name, rows: accessed.append(rows))
    real = QueryEngine._remove

    def remove(engine, table_name, victims, cause):
        removed.append(victims)
        return real(engine, table_name, victims, cause)

    monkeypatch.setattr(QueryEngine, "_remove", remove)
    expected = db.query(f"SELECT k FROM r WHERE {where}")
    result = db.query(f"CONSUME SELECT k FROM r WHERE {where}")
    assert result.stats.used_index.startswith(index)
    (matched,) = accessed[1:]
    (victims,) = removed
    assert victims is matched is result.consumed
    assert victims == RowSet(victims.rows) and len(victims) == len(expected.rows)
    assert list(victims.rows) == sorted(set(victims.rows))


def test_a_refused_consume_eats_and_refreshes_nothing():
    from repro.fungi.access import AccessRefreshFungus

    db = FungusDB(seed=1)
    fungus = AccessRefreshFungus(LinearDecayFungus(rate=0.1))
    db.create_table("r", Schema.of(k="int"), fungus=fungus)
    db.insert_many("r", [{"k": k} for k in range(10)])
    db.tick(3)
    counts = dict(db.bus.counts)

    def refuse(answer):
        assert answer.stats.rows_consumed == 5 and len(db.tables["r"]) == 10
        raise RuntimeError("reply too large")

    db.engine.answer_check = refuse
    with pytest.raises(RuntimeError, match="too large"):
        db.query("CONSUME SELECT k FROM r WHERE k < 5")
    db.engine.answer_check = None
    assert len(db.tables["r"]) == 10 and db.summaries("r") == []
    assert fungus._pending == set() and dict(db.bus.counts) == counts
    db.query("CONSUME SELECT k FROM r WHERE k < 5")
    assert len(db.tables["r"]) == 5 and len(db.summaries("r")) == 1


def test_a_dropped_table_keeps_no_delegates():
    from repro.storage import Table

    db = FungusDB()
    dropped = db.create_table("r", Schema.of(k="int"))
    db.drop_table("r")
    plain = Table(Schema.of(k="int"), name="r")
    db.catalog.register(plain)
    db.query("INSERT INTO r VALUES (1), (2)")
    db.query("DELETE FROM r WHERE k = 1")
    assert plain.to_rows() == [{"k": 2}] and len(dropped) == 0
