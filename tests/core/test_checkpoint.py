"""Tests for repro.core.checkpoint."""

import json
import os
import stat

import pytest

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.core.policy import EvictionMode
from repro.errors import SnapshotError
from repro.fungi import LinearDecayFungus
from repro.storage import Schema
from repro.storage.rowset import RowSet


@pytest.fixture
def populated_db():
    db = FungusDB(seed=5)
    db.create_table("a", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1))
    db.create_table("b", Schema.of(name="str"))
    db.insert("a", {"v": 1})
    db.tick(3)
    db.insert("a", {"v": 2})
    db.insert("b", {"name": "x"})
    return db


class TestSaveLoad:
    def test_roundtrip_rows_and_clock(self, populated_db, tmp_path):
        tables = save_checkpoint(populated_db, tmp_path)
        assert tables == ["a", "b"]
        loaded = load_checkpoint(tmp_path)
        assert loaded.now == 3.0
        assert loaded.extent("a") == 2
        assert loaded.extent("b") == 1

    def test_freshness_and_time_preserved(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        rows = loaded.table("a").rows()
        by_v = {r["v"]: r for r in rows}
        assert by_v[1]["t"] == 0.0
        assert by_v[1]["f"] == pytest.approx(0.7)
        assert by_v[2]["f"] == 1.0

    def test_decay_resumes(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        loaded = load_checkpoint(tmp_path, fungi={"a": LinearDecayFungus(rate=0.1)})
        loaded.tick(8)  # v=1 at f=0.7 dies within 7-8 more ticks
        values = [r["v"] for r in loaded.table("a").rows()]
        assert values == [2]

    def test_exhausted_rows_restored_exhausted(self, tmp_path):
        db = FungusDB(seed=1)
        table = db.create_table("r", Schema.of(v="int"))
        rid = db.insert("r", {"v": 1})
        table.set_freshness(rid, 0.0)
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert len(loaded.table("r").exhausted) == 1

    def test_seed_preserved(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        assert load_checkpoint(tmp_path).seed == 5

    def test_queries_work_after_load(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.query("SELECT count(*) FROM a").scalar() == 2

    def test_table_options_forwarded(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        loaded = load_checkpoint(
            tmp_path, table_options={"a": {"period": 7}}
        )
        assert loaded.policies["a"].period == 7


class TestDurability:
    def test_files_fsynced_before_manifest_directory_after(
        self, populated_db, tmp_path, monkeypatch
    ):
        """Every file is on disk before the manifest names it, and the
        directory entry of the manifest flip is synced after it."""
        populated_db.enable_forensics()
        populated_db.enable_querystats()
        populated_db.query("SELECT v FROM a")
        events: list[tuple] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            events.append(("fsync", info.st_ino, stat.S_ISDIR(info.st_mode)))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.basename(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        save_checkpoint(populated_db, tmp_path)

        written = [event[1] for event in events if event[0] == "replace"]
        assert sorted(written) == sorted(
            ["a.jsonl", "b.jsonl", "summaries.json", "forensics.json",
             "querystats.json", "manifest.json"]
        )
        assert written[-1] == "manifest.json"
        flip = events.index(("replace", "manifest.json"))
        synced_before = [e[1] for e in events[:flip] if e[0] == "fsync" and not e[2]]
        for name in written:
            # the inode survives the rename, so it names the synced file
            assert (tmp_path / name).stat().st_ino in synced_before, name
        after = events[flip + 1:]
        assert after == [("fsync", tmp_path.stat().st_ino, True)]


class TestEdgeCases:
    def test_empty_table_roundtrip(self, tmp_path):
        db = FungusDB(seed=1)
        db.create_table("empty", Schema.of(v="int"))
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.extent("empty") == 0
        assert loaded.query("SELECT count(*) FROM empty").scalar() == 0

    def test_database_with_no_tables(self, tmp_path):
        db = FungusDB(seed=1)
        db.tick(4)
        assert save_checkpoint(db, tmp_path) == []
        loaded = load_checkpoint(tmp_path)
        assert loaded.now == 4.0
        assert list(loaded.tables) == []

    def test_all_tombstone_table_roundtrip(self, tmp_path):
        """A table whose every row rotted away: extent 0, but the
        summaries still remember the departed."""
        db = FungusDB(seed=2)
        db.create_table("gone", Schema.of(v="int"), fungus=LinearDecayFungus(rate=1.0))
        db.insert_many("gone", [{"v": i} for i in range(4)])
        db.tick(1)
        assert db.extent("gone") == 0
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.extent("gone") == 0
        assert loaded.merged_summary("gone").row_count == 4

    def test_all_exhausted_lazy_table_roundtrip(self, tmp_path):
        """Exhausted-but-not-yet-evicted rows survive with f == 0."""
        db = FungusDB(seed=2)
        db.create_table(
            "limbo",
            Schema.of(v="int"),
            fungus=LinearDecayFungus(rate=1.0),
            eviction=EvictionMode.LAZY,
            lazy_batch=100,
        )
        db.insert_many("limbo", [{"v": i} for i in range(3)])
        db.tick(1)
        assert db.extent("limbo") == 3
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert loaded.extent("limbo") == 3
        assert len(loaded.table("limbo").exhausted) == 3
        assert all(r["f"] == 0.0 for r in loaded.table("limbo").rows())


class TestPinnedRows:
    def test_pins_survive_roundtrip(self, tmp_path):
        db = FungusDB(seed=6)
        table = db.create_table(
            "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.1)
        )
        rids = [db.insert("r", {"v": i}) for i in range(5)]
        table.pin(rids[1])
        table.pin(rids[3])
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        pinned_values = sorted(
            loaded.table("r").row_dict(rid)["v"] for rid in loaded.table("r").pinned
        )
        assert pinned_values == [1, 3]

    def test_pinned_row_still_immune_after_restore(self, tmp_path):
        db = FungusDB(seed=6)
        table = db.create_table(
            "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.5)
        )
        keep = db.insert("r", {"v": 7})
        db.insert("r", {"v": 8})
        table.pin(keep)
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path, fungi={"r": LinearDecayFungus(rate=0.5)})
        loaded.tick(4)
        assert [r["v"] for r in loaded.table("r").rows()] == [7]
        assert [r["f"] for r in loaded.table("r").rows()] == [1.0]

    def test_pin_ordinals_ignore_tombstones(self, tmp_path):
        """Row ids shift across restore when tombstones exist; the
        ordinal encoding must still find the same logical row."""
        db = FungusDB(seed=6)
        table = db.create_table("r", Schema.of(v="int"))
        rids = [db.insert("r", {"v": i}) for i in range(6)]
        table.evict(RowSet([rids[0], rids[2]]), "external")
        table.pin(rids[4])
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        pinned = list(loaded.table("r").pinned)
        assert len(pinned) == 1
        assert loaded.table("r").row_dict(pinned[0])["v"] == 4

    def test_manifest_without_pins_still_loads(self, populated_db, tmp_path):
        """Backward compatibility: pre-pin manifests lack the key."""
        save_checkpoint(populated_db, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest.pop("pinned", None)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_checkpoint(tmp_path)
        assert loaded.extent("a") == 2

    def test_out_of_range_pin_ordinal_rejected(self, tmp_path):
        db = FungusDB(seed=6)
        db.create_table("r", Schema.of(v="int"))
        db.insert("r", {"v": 1})
        save_checkpoint(db, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["pinned"] = {"r": [9]}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="pins ordinal"):
            load_checkpoint(tmp_path)


class TestSummaryStorePersistence:
    def test_summaries_survive_checkpoint(self, tmp_path):
        db = FungusDB(seed=2)
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.5))
        db.insert_many("r", [{"v": i} for i in range(6)])
        db.tick(3)  # everything rots and distills
        assert db.merged_summary("r").row_count == 6
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        merged = loaded.merged_summary("r")
        assert merged.row_count == 6
        assert merged.column("v").estimate_mean() == pytest.approx(2.5)

    def test_conservation_after_restore(self, tmp_path):
        db = FungusDB(seed=3)
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.4))
        db.insert_many("r", [{"v": i} for i in range(10)])
        db.tick(2)
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path, fungi={"r": LinearDecayFungus(rate=0.4)})
        loaded.tick(5)
        merged = loaded.merged_summary("r")
        assert loaded.extent("r") + merged.row_count == 10

    def test_vault_kind_restored(self, tmp_path):
        from repro.core.vault import SummaryVault

        vault = SummaryVault(half_life=3.0, compost_below=0.4)
        db = FungusDB(seed=4, store=vault)
        db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=1.0))
        db.insert("r", {"v": 1})
        db.tick(10)
        save_checkpoint(db, tmp_path)
        loaded = load_checkpoint(tmp_path)
        assert isinstance(loaded.store, SummaryVault)
        assert loaded.store.composted_summaries == vault.composted_summaries

    def test_corrupt_store_file(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        (tmp_path / "summaries.json").write_text("{oops")
        with pytest.raises(SnapshotError, match="corrupt summary store"):
            load_checkpoint(tmp_path)

    def test_unknown_store_kind(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        (tmp_path / "summaries.json").write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(SnapshotError, match="unknown summary store kind"):
            load_checkpoint(tmp_path)


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            load_checkpoint(tmp_path)

    def test_corrupt_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(SnapshotError, match="corrupt"):
            load_checkpoint(tmp_path)

    def test_wrong_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"manifest_version": 99, "clock": 0, "tables": []})
        )
        with pytest.raises(SnapshotError, match="version"):
            load_checkpoint(tmp_path)

    def test_manifest_written_last(self, populated_db, tmp_path):
        save_checkpoint(populated_db, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "manifest.json.tmp").exists()
