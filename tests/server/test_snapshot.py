"""TickSnapshot: frozen column copies answered by the one executor.

No sockets and no wall clock — the snapshot is exercised directly
against an embedded FungusDB. The differential is the consistency
split's contract: at a tick boundary a snapshot read and a strong read
of the same statement are the same ``ResultSet``, and nothing the live
database does afterwards (the next tick, a consume) may leak into an
already-captured snapshot.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EGIFungus, FungusDB
from repro.errors import StorageError
from repro.query.parser import parse
from repro.server.snapshot import TickSnapshot
from repro.storage.schema import ColumnDef, DataType, Schema

_ATTRIBUTES = Schema(
    [
        ColumnDef("v", DataType.INT),
        ColumnDef("s", DataType.STR),
        ColumnDef("x", DataType.FLOAT, nullable=True),
    ]
)

#: one statement per executor shape the snapshot must serve
_STATEMENTS = (
    "SELECT count(*), avg(x) FROM r WHERE v > 20",  # mask filter + aggregate
    "SELECT v, f FROM r WHERE f < 0.95",  # freshness mask
    "SELECT v, x FROM r WHERE s = 'a' AND v >= 10",  # string conjunct on codes
    "SELECT v, x FROM r WHERE abs(x) > 5.0 AND v >= 10",  # hybrid: a function
    "SELECT v FROM r WHERE x IS NULL",  # NULL attributes
    "SELECT count(*) FROM r WHERE x > 5.0",  # comparison over NULLs
    "SELECT s, count(*), avg(f) FROM r GROUP BY s",
    "SELECT v, x, f FROM r ORDER BY v DESC LIMIT 3",
)

_row = st.tuples(
    st.integers(0, 60),
    st.sampled_from("abc"),
    st.one_of(st.none(), st.floats(-50.0, 50.0, allow_nan=False)),
)

_op = st.one_of(
    st.tuples(st.just("insert"), st.lists(_row, min_size=1, max_size=12)),
    st.tuples(st.just("tick"), st.integers(1, 4)),
    st.tuples(st.just("consume"), st.integers(0, 60)),
    st.tuples(st.just("compact"), st.none()),
)

_schedule = st.lists(_op, min_size=1, max_size=12)


def _apply(db: FungusDB, schedule: list[tuple]) -> None:
    for kind, arg in schedule:
        if kind == "insert":
            db.insert_many("r", [dict(zip(("v", "s", "x"), row)) for row in arg])
        elif kind == "tick":
            db.tick(arg)
        elif kind == "consume":
            db.query(f"CONSUME SELECT v FROM r WHERE v >= {arg} AND v < {arg + 8}")
        else:
            # what DecayPolicy does on its compaction cadence
            db.policies["r"].fungus.on_compacted(db.tables["r"].compact())


def _db(seed: int, schedule: list[tuple]) -> FungusDB:
    db = FungusDB(seed=seed)
    # EGI rots in spots, so part of the table sits below f = 1.0
    db.create_table("r", _ATTRIBUTES, fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.2))
    _apply(db, schedule)
    return db


def _answers(run) -> list[tuple]:
    out = []
    for sql in _STATEMENTS:
        result = run(sql)
        out.append((result.columns, result.rows))
    return out


def _snapshot_answers(snapshot: TickSnapshot) -> list[tuple]:
    return _answers(lambda sql: snapshot.query(parse(sql), sql))


class TestSnapshotVsStrong:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), schedule=_schedule)
    def test_snapshot_read_equals_strong_read_at_the_boundary(self, seed, schedule):
        db = _db(seed, schedule)
        snapshot = TickSnapshot.capture(db)
        assert snapshot.tick == db.clock.now
        assert snapshot.rows == db.extent("r")
        assert _snapshot_answers(snapshot) == _answers(db.query)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), schedule=_schedule, after=_schedule)
    def test_later_mutation_of_the_live_db_changes_no_snapshot_answer(
        self, seed, schedule, after
    ):
        """Torn-read property at the unit level: copies, never views."""
        db = _db(seed, schedule)
        snapshot = TickSnapshot.capture(db)
        before = _snapshot_answers(snapshot)
        _apply(db, after)
        db.tick(1)
        db.query("CONSUME SELECT v FROM r WHERE v < 30")
        assert _snapshot_answers(snapshot) == before


class TestSnapshotEngine:
    def test_explain_reports_the_vectorized_mask_pipeline(self):
        db = _db(1, [("insert", [(i, "a", float(i)) for i in range(40)]), ("tick", 2)])
        snapshot = TickSnapshot.capture(db)
        plan = snapshot.engine.execute(parse("EXPLAIN SELECT v FROM r WHERE v > 3"))
        lines = [row[0] for row in plan.rows]
        assert "  mode: vectorized" in lines
        assert not any("row-fallback" in line for line in lines)

    @pytest.mark.parametrize(
        "sql",
        [
            "CONSUME SELECT v FROM r WHERE v > 3",
            "DELETE FROM r WHERE v > 3",
            "INSERT INTO r (v, s) VALUES (1, 'a')",
        ],
    )
    def test_query_refuses_anything_but_plain_select(self, sql):
        db = _db(1, [("insert", [(i, "a", None) for i in range(10)])])
        snapshot = TickSnapshot.capture(db)
        with pytest.raises(StorageError, match="SELECT-only"):
            snapshot.query(parse(sql), sql)
        assert snapshot.rows == 10
        assert db.extent("r") == 10
