"""Queries answered from columns against row contexts, in one process.

At ``query_scan``'s size (150k rows, 12 sites) two statement shapes must
beat the routes they replaced by the floors below:

* a count filtered by site and temperature, the site conjunct run on
  the STR column's dictionary codes, against that conjunct run by the
  row interpreter (the other conjunct stays a mask on both sides);
* a top-10 by temperature, the rid array sorted and cut before one
  gather per output column, against sorting and projecting row
  contexts.

Both sides must give the same answer. Same-process ratios only;
numbers compared across commits come from ``python -m bench_e2e run``.
"""

import random
import time
from unittest import mock

import pytest

from repro.core.db import FungusDB
from repro.query import masks
from repro.query.ast_nodes import ColumnRef
from repro.storage import Schema

ROWS = 150_000
BATCH = 2000
SITES = tuple(f"site{i:02d}" for i in range(12))
REPEATS = 5
COUNT_SQL = "SELECT count(*) FROM readings WHERE site = 'site03' AND temp > 22.0"
TOPK_SQL = (
    "SELECT sensor, temp FROM readings WHERE temp > 28.0 ORDER BY temp DESC LIMIT 10"
)
#: half the median of five measured ratios (161.1x and 15.5x on a 2-core
#: x86 box, CPython 3.11)
COUNT_FLOOR = 80.5
TOPK_FLOOR = 7.7


@pytest.fixture(scope="module")
def db():
    db = FungusDB(seed=0)
    db.create_table("readings", Schema.of(sensor="int", temp="float", site="str"))
    rng = random.Random(0)
    for _ in range(ROWS // BATCH):
        db.insert_many(
            "readings",
            [
                {
                    "sensor": rng.randrange(500),
                    "temp": rng.gauss(22.0, 4.0),
                    "site": rng.choice(SITES),
                }
                for _ in range(BATCH)
            ],
        )
    return db


def _best(db, sql) -> tuple[float, list]:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        rows = db.query(sql).rows
        samples.append(time.perf_counter() - start)
    return min(samples), rows


def _strings_by_row(expr, table, binding):
    """``compile_mask`` with a conjunct on a STR column left to the rows."""
    for ref in expr.column_refs():
        assert isinstance(ref, ColumnRef)
        if table.codes(ref.name) is not None:
            return None
    return masks.compile_mask(expr, table, binding)


def _report(capsys, what: str, slow: float, fast: float) -> None:
    with capsys.disabled():
        print(
            f"\n{what} over {ROWS} rows: row route {slow * 1e3:.2f} ms, "
            f"columns {fast * 1e3:.2f} ms, {slow / fast:.1f}x"
        )


def test_string_count_on_codes_against_rows(db, capsys):
    with mock.patch("repro.query.operators.compile_mask", _strings_by_row):
        rows_s, want = _best(db, COUNT_SQL)
    codes_s, got = _best(db, COUNT_SQL)
    assert got == want and want[0][0] > 0
    _report(capsys, "site count", rows_s, codes_s)
    assert rows_s >= COUNT_FLOOR * codes_s


def test_top_k_from_columns_against_contexts(db, capsys):
    with mock.patch("repro.query.operators.column_route", lambda *args: None):
        contexts_s, want = _best(db, TOPK_SQL)
    columns_s, got = _best(db, TOPK_SQL)
    assert got == want and len(want) == 10
    _report(capsys, "top-10 by temp", contexts_s, columns_s)
    assert contexts_s >= TOPK_FLOOR * columns_s
