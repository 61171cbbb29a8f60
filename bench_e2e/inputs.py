"""Seeded input generation: rows, statements and request mixes.

Everything here runs in set-up. The timed phases only replay what these
functions built, so the program under test never waits on the harness.
The same seed gives the same inputs; literals vary inside ranges narrow
enough that a statement's cost does not depend on which seed drew it.
"""

from __future__ import annotations

import random
from typing import Any, NamedTuple

SITES = tuple(f"site{i:02d}" for i in range(12))
SENSORS = 500  # distinct sensor ids on the embedded workloads
SERVER_SENSORS = 300  # ~17 rows per sensor at 5000 rows; see server_requests


def row_batches(
    rng: random.Random, batches: int, rows: int
) -> list[list[dict[str, Any]]]:
    """``batches`` lists of ``rows`` attribute dicts; callers cycle through them."""
    return [
        [
            {
                "sensor": rng.randrange(SENSORS),
                "temp": rng.gauss(22.0, 4.0),
                "site": rng.choice(SITES),
            }
            for _ in range(rows)
        ]
        for _ in range(batches)
    ]


class Statement(NamedTuple):
    """One query_scan statement: its SQL and the literals the reference needs."""

    shape: str
    sql: str
    params: tuple


# shape -> (label in metric names, count at --seconds 20)
QUERY_SHAPES = {
    "S1": ("scan", 100),  # two-conjunct count(*), selectivity-ordered masks
    "S2": ("agg", 16),  # filtered GROUP BY with avg and freshness-weighted avg
    "S3": ("point", 1000),  # hash-index point read
    "S4": ("strscan", 24),  # string predicate: hybrid mode, per-row evaluation
    "S5": ("proj", 100),  # narrow projection of a selective scan
    "S6": ("fresh", 100),  # freshness predicate, pruned to the rot spans
    "S7": ("topk", 40),  # top-10 by temp over a selective scan
    "S8": ("trange", 40),  # time-range read through the sorted index on t
}


def query_statements(
    rng: random.Random, counts: dict[str, int], last_tick: int
) -> list[Statement]:
    """The shuffled statement list of query_scan (``counts`` per shape)."""
    out: list[Statement] = []
    for shape, count in counts.items():
        for _ in range(count):
            out.append(_statement(rng, shape, last_tick))
    rng.shuffle(out)
    return out


def _statement(rng: random.Random, shape: str, last_tick: int) -> Statement:
    if shape == "S1":
        temp, residue = round(rng.uniform(21.5, 22.5), 3), rng.randrange(7)
        sql = (
            f"SELECT count(*) FROM readings WHERE temp > {temp} "
            f"AND sensor % 7 = {residue}"
        )
        return Statement(shape, sql, (temp, residue))
    if shape == "S2":
        temp = round(rng.uniform(21.5, 22.5), 3)
        sql = (
            "SELECT site, count(*), avg(temp), wavg(temp, f) FROM readings "
            f"WHERE temp > {temp} GROUP BY site"
        )
        return Statement(shape, sql, (temp,))
    if shape == "S3":
        sensor = rng.randrange(SENSORS)
        return Statement(
            shape, f"SELECT temp, f FROM readings WHERE sensor = {sensor}", (sensor,)
        )
    if shape == "S4":
        site, temp = rng.choice(SITES), round(rng.uniform(21.5, 22.5), 3)
        sql = f"SELECT count(*) FROM readings WHERE site = '{site}' AND temp > {temp}"
        return Statement(shape, sql, (site, temp))
    if shape == "S5":
        temp = round(rng.uniform(31.0, 31.5), 3)
        return Statement(
            shape, f"SELECT sensor, temp FROM readings WHERE temp > {temp}", (temp,)
        )
    if shape == "S6":
        f = round(rng.uniform(0.55, 0.70), 3)
        return Statement(shape, f"SELECT count(*) FROM readings WHERE f < {f}", (f,))
    if shape == "S7":
        temp = round(rng.uniform(28.0, 28.5), 3)
        sql = (
            f"SELECT sensor, temp FROM readings WHERE temp > {temp} "
            "ORDER BY temp DESC LIMIT 10"
        )
        return Statement(shape, sql, (temp,))
    if shape == "S8":
        # a five-tick window from the younger, less rotted half of the table
        lo = rng.randrange(last_tick // 2, last_tick - 4)
        sql = f"SELECT count(*), avg(temp) FROM readings WHERE t BETWEEN {lo} AND {lo + 4}"
        return Statement(shape, sql, (lo, lo + 4))
    raise ValueError(f"unknown shape {shape!r}")


def consume_statements(rng: random.Random, rounds: int) -> list[tuple[str, str]]:
    """(C1, C2) of consume_cook for each round."""
    out = []
    for i in range(rounds):
        c1 = (
            "CONSUME SELECT sensor, temp FROM events "
            f"WHERE f < 0.8 AND sensor % 4 = {i % 4}"
        )
        c2 = (
            "CONSUME SELECT sensor, temp, f FROM events "
            f"WHERE temp > {round(rng.uniform(27.0, 29.0), 3)}"
        )
        out.append((c1, c2))
    return out


# the closed-loop mix per 100 requests
SERVER_MIX = (("snapshot", 68), ("strong", 10), ("insert", 20), ("consume", 2))


def server_requests(rng: random.Random, count: int) -> list[tuple[str, dict[str, Any]]]:
    """``count`` (kind, frame payload) pairs in the seeded 68/10/20/2 mix.

    A consume removes the rows of one sensor with ``temp > 20`` (~12 of
    ~17), and 100 requests carry 2 consumes against 20 inserts, so the
    extent stays near the seed rows. Sensors are drawn without
    replacement, because a second consume of the same sensor finds
    little left and the table would grow.
    """
    kinds = [kind for kind, share in SERVER_MIX for _ in range(share)]
    consumable = list(range(SERVER_SENSORS))
    rng.shuffle(consumable)
    out: list[tuple[str, dict[str, Any]]] = []
    while len(out) < count:
        rng.shuffle(kinds)
        for kind in kinds:
            out.append((kind, _request(rng, kind, consumable)))
    return out[:count]


def _request(rng: random.Random, kind: str, consumable: list[int]) -> dict[str, Any]:
    if kind == "snapshot":
        temp = round(rng.uniform(21.5, 22.5), 3)
        return {
            "op": "query",
            "sql": f"SELECT count(*), avg(temp) FROM readings WHERE temp > {temp}",
            "consistency": "snapshot",
        }
    if kind == "strong":
        sensor = rng.randrange(SERVER_SENSORS)
        return {
            "op": "query",
            "sql": f"SELECT count(*), avg(temp) FROM readings WHERE sensor = {sensor}",
            "consistency": "strong",
        }
    if kind == "insert":
        row = {"sensor": rng.randrange(SERVER_SENSORS), "temp": rng.gauss(22.0, 4.0)}
        return {"op": "insert", "table": "readings", "row": row}
    if not consumable:
        consumable.extend(range(SERVER_SENSORS))
        rng.shuffle(consumable)
    sensor = consumable.pop()
    return {
        "op": "query",
        "sql": (
            "CONSUME SELECT sensor FROM readings "
            f"WHERE sensor = {sensor} AND temp > 20.0"
        ),
        "consistency": "strong",
    }
