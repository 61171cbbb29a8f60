"""Predicates over literals alone, through ``FungusDB.query``.

A literal-only subtree compiles to a numpy scalar that is broadcast to
every candidate row. ``NOT``, ``AND``, ``OR`` and ``BETWEEN`` over such
a subtree must stay logical: a Python ``bool`` under ``~`` becomes the
integer -1 or -2, and an integer "mask" indexes rids instead of
selecting them, so SELECT returned the wrong rows and CONSUME / DELETE
removed them.
"""

from __future__ import annotations

import pytest

from repro.core.db import FungusDB
from repro.storage import Schema

#: (predicate, x values it keeps out of x = 1, 2, 3)
CASES = [
    ("NOT (1 = 1)", []),
    ("NOT (0 < 0)", [1, 2, 3]),
    ("NOT (1 BETWEEN 0 AND 2)", []),
    ("NOT (5 BETWEEN 0 AND 2)", [1, 2, 3]),
    ("5 NOT BETWEEN 0 AND 2", [1, 2, 3]),
    ("NOT (1 = 1 OR 2 = 3)", []),
    ("NOT (1 = 2 AND 2 = 2)", [1, 2, 3]),
    ("NOT (1 IN (2, 3))", [1, 2, 3]),
    ("NOT (1 IS NULL)", [1, 2, 3]),
    ("NOT (-1 < 0)", []),
    ("NOT (4 % 3 = 1)", []),
    ("NOT (0 = 0) OR x = 2", [2]),
    ("x = 2 OR NOT (2 > 1)", [2]),
    ("NOT (1 = 2) AND x > 1", [2, 3]),
    ("1 = 1 AND NOT (x = 2)", [1, 3]),
    ("NOT (1 = 1) AND x > 1", []),
    ("NOT (NOT (1 = 1))", [1, 2, 3]),
]


def _db() -> FungusDB:
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(x="int"))
    db.insert_many("r", [{"x": 1}, {"x": 2}, {"x": 3}])
    return db


def _live(db: FungusDB) -> list[int]:
    return sorted(row[0] for row in db.query("SELECT x FROM r").rows)


@pytest.mark.parametrize("predicate, kept", CASES)
def test_select(predicate, kept):
    db = _db()
    rows = db.query(f"SELECT x FROM r WHERE {predicate} ORDER BY x").rows
    assert rows == [(x,) for x in kept]
    assert _live(db) == [1, 2, 3]


@pytest.mark.parametrize("predicate, kept", CASES)
def test_consume_eats_exactly_the_matching_rows(predicate, kept):
    db = _db()
    rows = db.query(f"CONSUME SELECT x FROM r WHERE {predicate}").rows
    assert sorted(rows) == [(x,) for x in kept]
    assert _live(db) == [x for x in (1, 2, 3) if x not in kept]


@pytest.mark.parametrize("predicate, kept", CASES)
def test_delete_removes_exactly_the_matching_rows(predicate, kept):
    db = _db()
    db.query(f"DELETE FROM r WHERE {predicate}")
    assert _live(db) == [x for x in (1, 2, 3) if x not in kept]
