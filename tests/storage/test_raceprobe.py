"""The runtime thread-sanitizer probe: ownership, violations, fan-out."""

from __future__ import annotations

import threading

import pytest

from repro.core.db import FungusDB
from repro.fungi import LinearDecayFungus
from repro.storage.raceprobe import RaceProbe, RaceProbeError
from repro.storage.schema import Schema
from repro.storage.table import Table


def _table() -> Table:
    # ``v`` is array-backed so the bulk ``write_rows`` accepts it
    return Table(Schema.of(k="int", v="float"), name="t", vector_columns=("v",))


def _in_thread(fn) -> None:
    """Run ``fn`` on a fresh thread, re-raising anything it raised."""
    box: list[BaseException] = []

    def runner() -> None:
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box.append(exc)

    thread = threading.Thread(target=runner)
    thread.start()
    thread.join()
    if box:
        raise box[0]


class TestOwnership:
    def test_first_mutation_claims_the_calling_thread(self):
        table = _table()
        probe = RaceProbe()
        table.probe = probe
        assert probe.owner is None
        table.append({"k": 1, "v": 0.5})
        assert probe.owner == threading.get_ident()

    def test_same_thread_mutations_stay_silent(self):
        table = _table()
        table.probe = RaceProbe()
        rid = table.append({"k": 1, "v": 0.5})
        table.update(rid, "v", 0.25)
        table.delete(rid)
        table.compact()
        assert table.probe.violations == []

    def test_bind_rebinding_hands_ownership_over(self):
        table = _table()
        probe = RaceProbe()
        table.probe = probe
        table.append({"k": 1, "v": 0.5})
        _in_thread(probe.bind)
        with pytest.raises(RaceProbeError, match="append"):
            table.append({"k": 2, "v": 0.5})


class TestViolations:
    def test_cross_thread_mutation_raises_with_table_and_op(self):
        table = _table()
        probe = RaceProbe()
        table.probe = probe
        table.append({"k": 1, "v": 0.5})
        with pytest.raises(RaceProbeError, match=r"'t'.*delete"):
            _in_thread(lambda: table.delete(0))
        assert len(probe.violations) == 1
        assert probe.violations[0].op == "delete"

    def test_record_mode_collects_instead_of_raising(self):
        table = _table()
        probe = RaceProbe(mode="record")
        table.probe = probe
        table.append({"k": 1, "v": 0.5})
        _in_thread(lambda: table.append({"k": 2, "v": 0.5}))
        assert [v.op for v in probe.violations] == ["append"]
        assert "owned by" in probe.violations[0].format()

    def test_bulk_mutators_are_probed(self):
        table = _table()
        probe = RaceProbe(mode="record")
        table.probe = probe
        table.append_many([{"k": i, "v": 0.5} for i in range(4)])
        _in_thread(lambda: table.delete_many([0, 1]))
        _in_thread(lambda: table.write_rows("v", [2], [0.75]))
        assert [v.op for v in probe.violations] == ["delete_many", "write_rows"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RaceProbe(mode="panic")


class TestDatabaseFanOut:
    def _db(self) -> FungusDB:
        db = FungusDB(seed=3)
        db.create_table(
            "r", Schema.of(k="int", v="int"), fungus=LinearDecayFungus(rate=0.1)
        )
        return db

    def test_enable_covers_existing_and_future_tables(self):
        db = self._db()
        probe = db.enable_race_probe()
        assert db.tables["r"].storage.probe is probe
        db.create_table("s", Schema.of(k="int", v="int"))
        assert db.tables["s"].storage.probe is probe

    def test_enable_is_idempotent(self):
        db = self._db()
        assert db.enable_race_probe() is db.enable_race_probe()

    def test_two_databases_get_independent_probes(self):
        """A replay db mutated on another thread must not trip the
        served db's probe — ownership is per-database."""
        served = self._db()
        replay = self._db()
        served.enable_race_probe()
        served.insert("r", {"k": 1, "v": 2})
        _in_thread(lambda: replay.insert("r", {"k": 1, "v": 2}))
        assert served.race_probe.violations == []

    def test_engine_mutation_off_owner_thread_raises(self):
        db = self._db()
        db.enable_race_probe()
        db.insert("r", {"k": 1, "v": 2})
        with pytest.raises(RaceProbeError):
            _in_thread(lambda: db.tick(1))

    def test_describe_shape(self):
        probe = RaceProbe()
        description = probe.describe()
        assert description["mode"] == "raise"
        assert description["violations"] == []
