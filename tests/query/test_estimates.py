"""One estimator: EXPLAIN CONSUME, EXPLAIN ANALYZE and the planner agree.

The database rots under EGI for 40 ticks of 200 rows, with the time
column sorted-indexed as :class:`FungusDB` always does, so index access,
span pruning and plain residual filters all meet the estimator.
"""

import random
import re

import pytest

from repro.core.db import FungusDB
from repro.fungi import EGIFungus
from repro.storage.schema import Schema
from repro.storage.stats import PlannerStats, planner_stats

EST = re.compile(r"^  rows(?: consumed)?: est (\d+), actual")


def build() -> FungusDB:
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(k="int", v="int"), fungus=EGIFungus())
    rng = random.Random(1)
    for _ in range(40):
        db.insert_many(
            "r", [{"k": rng.randrange(10), "v": rng.randrange(100)} for _ in range(200)]
        )
        db.tick()
    return db


def analyzed_estimates(db: FungusDB, sql: str) -> list[int]:
    """The per-node ``est`` figures of ``EXPLAIN ANALYZE sql``, in order."""
    lines = [row[0] for row in db.query(f"EXPLAIN ANALYZE {sql}").rows]
    return [int(m.group(1)) for line in lines if (m := EST.match(line))]


@pytest.mark.parametrize(
    "where",
    [
        "NOT (v > 50)",
        "t BETWEEN 10 AND 14",
        "f < 0.8",
        "v > 40 AND v < 60",
        "k IN (1, 2) OR v > 70",
    ],
)
def test_explain_consume_prints_the_analyzed_consume_estimate(where):
    db = build()
    sql = f"CONSUME SELECT k FROM r WHERE {where}"
    report = db.explain_consume(sql)
    assert report.verdict == "partial"
    assert db.extent("r") == report.extent  # the analysis ate nothing
    scan_est, consume_est = analyzed_estimates(db, sql)
    assert report.estimated_rows == consume_est == scan_est


def test_indexed_between_scan_estimates_from_the_interval():
    db = build()
    stats = planner_stats(db.catalog.table("r"))
    # t is never NULL, so the interval's histogram mass is the whole estimate
    interval = round(
        stats.live_rows * stats.column("t").histogram.fraction_between(10, 14)
    )
    lines = [
        row[0]
        for row in db.query(
            "EXPLAIN SELECT count(*) FROM r WHERE t BETWEEN 10 AND 14"
        ).rows
    ]
    assert lines[0] == "scan r via range(t in [10, 14]); residual none"
    (scan_est,) = analyzed_estimates(
        db, "SELECT k FROM r WHERE t BETWEEN 10 AND 14"
    )
    assert scan_est == interval


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT k FROM r WHERE v > 50",
        "SELECT count(*) FROM r WHERE t BETWEEN 10 AND 14",
        "CONSUME SELECT k FROM r WHERE f < 0.8",
    ],
)
def test_single_conjunct_statement_reads_no_statistics(sql, monkeypatch):
    db = build()
    calls = []
    column = PlannerStats.column

    def counting(self, name):
        calls.append(name)
        return column(self, name)

    monkeypatch.setattr(PlannerStats, "column", counting)
    db.query(sql)
    assert calls == []
