"""Regression: a tracer wired at restore reaches *later* tables too.

The flight-recorder contract is one continuous trace across a
checkpoint/restore fault — including relations created after the
restore returned. ``db.tracer`` is a property whose setter fans out
to the clock, the engine and every table, and ``create_table`` wires
newcomers to the database's current tracer; these tests pin both
halves, because the old wiring (a one-shot attribute copy at restore
time) silently left post-restore tables tracing into the void.
"""

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.fungi import LinearDecayFungus
from repro.obs.tracing import Tracer
from repro.storage.schema import Schema


def _span_names(tracer: Tracer) -> set[str]:
    return {span["name"] for span in tracer.to_dicts()}


def _spans_for_table(tracer: Tracer, name: str, table: str) -> list[dict]:
    return [
        span
        for span in tracer.to_dicts()
        if span["name"] == name and span["attrs"].get("table") == table
    ]


def test_tracer_reaches_tables_created_after_restore(tmp_path):
    db = FungusDB(seed=11)
    db.create_table("old", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1))
    db.insert("old", {"v": 1})
    save_checkpoint(db, tmp_path)

    tracer = Tracer()
    restored = load_checkpoint(
        tmp_path, fungi={"old": LinearDecayFungus(rate=0.1)}, tracer=tracer
    )
    assert "checkpoint.restore" in _span_names(tracer)

    # the regression: a table born *after* the restore must trace
    restored.create_table(
        "young", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1)
    )
    restored.insert("young", {"v": 2})
    restored.tick(1)
    assert _spans_for_table(tracer, "policy.cycle", "young"), (
        "post-restore table's decay cycle left no span"
    )

    # and its storage maintenance traces too
    restored.table("young").storage.delete(
        next(iter(restored.table("young").live_rows()))
    )
    restored.table("young").compact()
    compacts = _spans_for_table(tracer, "table.compact", "young")
    assert compacts and compacts[0]["attrs"]["remapped"] >= 0


def test_tracer_property_fans_out_and_detaches(tmp_path):
    db = FungusDB(seed=3)
    db.create_table("r", Schema.of(v="int"))
    tracer = Tracer()
    db.tracer = tracer
    assert db.clock.tracer is tracer
    assert db.engine.tracer is tracer
    assert db.table("r").tracer is tracer

    db.create_table("s", Schema.of(v="int"))
    assert db.table("s").tracer is tracer

    quiet = Tracer(max_finished=0)
    db.tracer = quiet
    assert db.table("r").tracer is quiet
    assert db.table("s").tracer is quiet
