"""Freshness predicates answer what a plain filter over the rows says.

Law 1 writes freshness in place, and the rows a scan must find for
``f < x`` are wherever the fungus left them: in the rows a checkpoint
restored mid-decay, in the rows compaction renumbered, and in the dense
copy a tick snapshot queries. Each statement below runs as a SELECT, a
``count(*)`` and a CONSUME in those three places, and its answer is
held to a Python filter over ``rows()`` taken just before it ran.
"""

from __future__ import annotations

import pytest

from repro import EGIFungus, FungusDB
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.server.snapshot import TickSnapshot
from repro.storage.schema import Schema

#: (WHERE clause, the same predicate over a row dict)
PREDICATES = [
    ("f < 0.8", lambda row: row["f"] < 0.8),
    ("f <= 0.6", lambda row: row["f"] <= 0.6),
    ("f BETWEEN 0.3 AND 0.9", lambda row: 0.3 <= row["f"] <= 0.9),
    ("f < 0.95 AND v > 40", lambda row: row["f"] < 0.95 and row["v"] > 40),
]
KINDS = ("select", "count", "consume")
SEEDS = range(4)


def _sql(kind: str, where: str) -> str:
    if kind == "count":
        return f"SELECT count(*) FROM r WHERE {where}"
    prefix = "CONSUME " if kind == "consume" else ""
    return f"{prefix}SELECT v, f FROM r WHERE {where}"


def _decayed_db(seed: int) -> FungusDB:
    """EGI rots in spots, so some rows sit at f = 1.0 and some below;
    a consume and evictions leave tombstones between them."""
    db = FungusDB(seed=seed)
    db.create_table(
        "r",
        Schema.of(v="int", s="str"),
        fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.15),
    )
    db.insert_many("r", [{"v": i, "s": "ab"[i % 2]} for i in range(80)])
    db.tick(4)
    db.query("CONSUME SELECT v FROM r WHERE v >= 30 AND v < 36")
    db.insert_many("r", [{"v": 80 + i, "s": "a"} for i in range(30)])
    db.tick(2)
    return db


def _restored(seed: int, tmp_path) -> tuple:
    save_checkpoint(_decayed_db(seed), tmp_path)
    db = load_checkpoint(tmp_path)
    return db.query, lambda: db.table("r").rows()


def _compacted(seed: int, tmp_path) -> tuple:
    db = _decayed_db(seed)
    # what DecayPolicy does on its compaction cadence
    db.policies["r"].fungus.on_compacted(db.tables["r"].compact())
    return db.query, lambda: db.table("r").rows()


def _snapshot(seed: int, tmp_path) -> tuple:
    snapshot = TickSnapshot.capture(_decayed_db(seed))
    # the engine itself, not TickSnapshot.query: a consume must run on
    # the copy too, to see it delete what the filter says
    engine = snapshot.engine
    return engine.execute, lambda: engine.catalog.table("r").to_rows()


CASES = {"restore": _restored, "compaction": _compacted, "snapshot": _snapshot}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("where, keep", PREDICATES, ids=[p[0] for p in PREDICATES])
def test_freshness_answers_match_a_filter_over_the_rows(seed, case, where, keep, tmp_path):
    for kind in KINDS:
        run, rows = CASES[case](seed, tmp_path / kind)
        before = rows()
        fresh = [row for row in before if row["f"] == 1.0]
        assert fresh and len(fresh) < len(before), "the case must mix rot and fresh rows"
        matched = [row for row in before if keep(row)]
        result = run(_sql(kind, where))
        if kind == "count":
            assert result.rows == [(len(matched),)]
            continue
        assert result.rows == [(row["v"], row["f"]) for row in matched]
        left = [row for row in before if not keep(row)]
        assert rows() == (left if kind == "consume" else before)
