"""Tests for rot forensics: death records, the lineage store, chains.

Covers the forensic vocabulary (causes, infection events), chain
resolution back to seed events, rot-spot reconstruction, the bounded
store, and the end-of-run audit contract the CI replay sweep enforces.
"""

import random

import pytest

from repro.core.db import FungusDB
from repro.core.events import DeathRecorded
from repro.core.policy import EvictionMode
from repro.errors import ObsError
from repro.fungi import EGIFungus, LinearDecayFungus
from repro.obs.forensics import Forensics
from repro.obs.forensics.records import (
    CAUSES,
    REASON_TO_CAUSE,
    DeathRecord,
    InfectionEvent,
)
from repro.obs.forensics.store import (
    LineageStore,
    TERMINUS_CYCLE,
    TERMINUS_EXPIRED,
    TERMINUS_INSERTED,
    TERMINUS_SEED,
    TERMINUS_TRUNCATED,
)
from repro.storage import RowSet
from repro.storage.schema import Schema


def _egi_db(seed=7, rows=40, rate=0.5, **forensics_kwargs):
    db = FungusDB(seed=seed)
    db.create_table(
        "r",
        Schema.of(v="int"),
        fungus=EGIFungus(seeds_per_cycle=2, decay_rate=rate),
    )
    forensics = db.enable_forensics(**forensics_kwargs)
    for i in range(rows):
        db.insert("r", {"v": i})
    return db, forensics


def _plain_db():
    db = FungusDB(seed=3)
    db.create_table("r", Schema.of(v="int"))
    forensics = db.enable_forensics()
    for i in range(6):
        db.insert("r", {"v": i})
    return db, forensics


class TestVocabulary:
    def test_every_reason_maps_to_a_known_cause(self):
        assert set(REASON_TO_CAUSE.values()) == set(CAUSES)

    def test_enable_is_idempotent(self):
        db = FungusDB(seed=1)
        assert db.enable_forensics() is db.enable_forensics()
        db.disable_forensics()
        assert db.forensics is None
        db.disable_forensics()  # no-op when off

    def test_store_rejects_bad_bounds(self):
        with pytest.raises(ObsError, match="trajectory_len"):
            LineageStore(trajectory_len=0)
        with pytest.raises(ObsError, match="max_deaths"):
            LineageStore(max_deaths=0)


class TestCauses:
    def test_decay_eviction_closes_as_evicted(self):
        db, forensics = _egi_db()
        db.tick(30)
        deaths = forensics.deaths("r")
        assert deaths, "EGI at rate 0.5 should have evicted something"
        evicted = [r for r in deaths if r.cause == "evicted"]
        assert evicted
        for record in evicted:
            assert record.fungus == "egi"
            assert record.origin in ("seed", "spread")

    def test_consume_records_the_query_text(self):
        db, forensics = _plain_db()
        sql = "CONSUME SELECT v FROM r WHERE v < 2"
        db.query(sql)
        consumed = [r for r in forensics.deaths("r") if r.cause == "consumed"]
        assert len(consumed) == 2
        for record in consumed:
            assert record.query == sql

    def test_drop_table_closes_survivors_as_truncated(self):
        db, forensics = _plain_db()
        db.drop_table("r")
        deaths = forensics.deaths("r")
        assert len(deaths) == 6
        assert all(r.cause == "truncated" for r in deaths)

    def test_restored_over_records_fresh_fids_past_watermark(self):
        db, forensics = _plain_db()
        db.tick(1)
        old = FungusDB(seed=9)
        old.create_table("r", Schema.of(v="int"))
        for i in range(3):
            old.insert("r", {"v": i})
        recorded = forensics.record_restored_over(old)
        assert recorded == 3
        overs = [r for r in forensics.deaths("r") if r.cause == "restored-over"]
        assert len(overs) == 3
        live_fids = {life.fid for life in forensics.store._lives["r"].values()}
        assert live_fids.isdisjoint({r.fid for r in overs})


class TestChains:
    def test_every_egi_death_resolves_to_a_seed(self):
        db, forensics = _egi_db()
        db.tick(30)
        deaths = forensics.deaths("r")
        assert deaths
        for record in deaths:
            chain = forensics.store.resolve_chain("r", record)
            assert chain.complete, (record, chain.terminus)
            assert chain.terminus == TERMINUS_SEED
        # EGI spreads along neighbours, so some chains are > 1 hop
        assert any(
            len(forensics.store.resolve_chain("r", r).links) > 1 for r in deaths
        )

    def test_uninfected_death_terminates_at_insertion(self):
        db, forensics = _plain_db()
        db.query("CONSUME SELECT v FROM r WHERE v = 0")
        chain = forensics.why("r", 0)
        assert chain is not None
        assert chain.terminus == TERMINUS_INSERTED
        assert len(chain.links) == 1

    def test_why_live_row_resolves_before_death(self):
        db, forensics = _plain_db()
        chain = forensics.why("r", 4)
        assert chain is not None
        assert chain.links[0].alive is True
        assert chain.terminus == TERMINUS_INSERTED

    def test_why_unknown_reference_is_none(self):
        db, forensics = _plain_db()
        assert forensics.why("r", 999) is None
        assert forensics.why("missing", 0) is None
        assert "no forensic record" in forensics.why_text("r", 999)

    def test_rid_lookup_falls_back_to_most_recent_death(self):
        db, forensics = _plain_db()
        db.query("CONSUME SELECT v FROM r WHERE v = 3")
        chain = forensics.why("r", 3)  # rid 3 is dead now
        assert chain is not None
        assert chain.links[0].record is not None
        assert chain.links[0].record.cause == "consumed"

    def test_expired_ancestor_is_an_explicit_terminus(self):
        store = LineageStore(max_deaths=2)
        store.born("r", 0, 0.0)
        store.infected("r", 0, "egi", "seed", None, 0.0)
        store.born("r", 1, 0.0)
        store.infected("r", 1, "egi", "spread", 0, 1.0)
        store.died("r", 0, "decay", 2.0)
        # push fid 0's record out of the bounded store
        for rid in (10, 11):
            store.born("r", rid, 0.0)
            store.died("r", rid, "decay", 3.0)
        chain = store.why("r", 1)
        assert chain.terminus == TERMINUS_EXPIRED
        assert not chain.complete

    def test_lineage_cycle_is_detected_not_looped(self):
        store = LineageStore()
        store.born("r", 0, 0.0)
        store.born("r", 1, 0.0)
        store.infected("r", 0, "egi", "spread", 1, 1.0)
        store.infected("r", 1, "egi", "spread", 0, 1.0)
        chain = store.why("r", 0)
        assert chain.terminus == TERMINUS_CYCLE


class TestAdoption:
    def test_rows_older_than_forensics_still_get_records(self):
        db = FungusDB(seed=5)
        db.create_table(
            "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.5)
        )
        for i in range(4):
            db.insert("r", {"v": i})
        forensics = db.enable_forensics()  # after the inserts
        db.tick(3)
        assert len(forensics.deaths("r")) == 4
        assert forensics.audit() == []


class TestBatchWalk:
    """The collector walks each batch row by row, in the batch's order."""

    def test_infections_are_walked_in_infection_order(self):
        db = FungusDB(seed=5)
        table = db.create_table("r", Schema.of(v="int"))
        db.insert_many("r", [{"v": i} for i in range(10)])
        forensics = db.enable_forensics()  # the rows are adopted when first seen
        table.mark_infected_many(
            [7, 2, 6, 9], "egi", ["seed", "seed", "spread", "spread"], [None, None, 7, 7]
        )
        store = forensics.store
        assert [store.life("r", rid).fid for rid in (7, 2, 6, 9)] == [0, 1, 2, 3]
        spread = store.life("r", 9).last_infection
        assert (spread.origin, spread.source_fid) == ("spread", 0)

    def test_births_trajectories_and_deaths_follow_the_batch(self):
        db = FungusDB(seed=5)
        table = db.create_table("r", Schema.of(v="int"))
        forensics = db.enable_forensics()
        deaths: list = []
        db.bus.subscribe(DeathRecorded, deaths.append)
        db.insert_many("r", [{"v": i} for i in range(5)])
        table.set_freshness_many([1, 3, 4], [0.5, 0.25, 1.0], "manual")
        table.evict(RowSet([1, 3, 4]), "manual")
        store = forensics.store
        assert [store.life("r", rid).fid for rid in (0, 2)] == [0, 2]
        records = forensics.deaths("r")
        assert [(r.fid, r.rid) for r in records] == [(1, 1), (3, 3), (4, 4)]
        assert [r.trajectory[-1][1] for r in records] == [0.5, 0.25, 1.0]
        assert [(e.rid, e.cause) for e in deaths] == [
            (1, "evicted"),
            (3, "evicted"),
            (4, "evicted"),
        ]


def _attach_order_run(forensics_first: bool):
    """One seeded schedule; forensics, alerts and telemetry attached
    before the tables exist, or after them."""
    rules = ["eviction_rate > 1.5 for 2", "consume_rate > 0.5", "extent < 30 for 3"]
    db = FungusDB(seed=11)
    if forensics_first:
        db.enable_forensics(rules=rules)
        db.enable_telemetry()
    db.create_table(
        "egi",
        Schema.of(k="int"),
        fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.3),
        compact_every=4,
    )
    db.create_table(
        "lin",
        Schema.of(k="int"),
        fungus=LinearDecayFungus(rate=0.15),
        eviction=EvictionMode.LAZY,
        lazy_batch=5,
    )
    if not forensics_first:
        db.enable_telemetry()
        db.enable_forensics(rules=rules)
    rng = random.Random(11)
    for _ in range(120):
        name = rng.choice(("egi", "lin"))
        op = rng.random()
        if op < 0.35:
            db.insert_many(name, [{"k": rng.randrange(8)} for _ in range(rng.randint(1, 20))])
        elif op < 0.75:
            db.tick(rng.randint(1, 2))
        elif op < 0.87:
            db.query(f"CONSUME SELECT k FROM {name} WHERE k = {rng.randrange(8)}")
        else:
            db.query(f"DELETE FROM {name} WHERE k = {rng.randrange(8)}")
    forensics = db.forensics
    deaths = {name: forensics.deaths(name) for name in ("egi", "lin")}
    why = [
        forensics.why_text(name, record.fid, by_fid=True)
        for name, records in deaths.items()
        for record in records
    ]
    return deaths, why, list(forensics.store.alert_log), db.stats()["events"]


def test_attach_order_changes_no_forensic_answer():
    """Forensics runs among the batch handlers in subscription order;
    attaching it before or after the tables and telemetry changes nothing."""
    early = _attach_order_run(forensics_first=True)
    late = _attach_order_run(forensics_first=False)
    deaths, _, alert_log, events = early
    assert sum(len(records) for records in deaths.values()) > 50
    assert alert_log and events["TupleConsumed"] > 0
    assert early == late


class TestBounds:
    def test_death_records_are_fifo_bounded(self):
        db, forensics = _plain_db()
        db.disable_forensics()
        forensics = db.enable_forensics(max_deaths=4)
        for i in range(6):
            db.insert("r", {"v": 100 + i})
        db.query("CONSUME SELECT v FROM r")
        deaths = forensics.deaths("r")
        assert len(deaths) == 4
        assert forensics.store.deaths_recorded == 12  # 6 old + 6 new rows
        fids = [r.fid for r in deaths]
        assert fids == sorted(fids)  # oldest evicted first, order kept

    def test_trajectory_is_a_ring_buffer(self):
        db = FungusDB(seed=2)
        db.create_table(
            "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.01)
        )
        forensics = db.enable_forensics(trajectory_len=4)
        db.insert("r", {"v": 1})
        db.tick(10)
        life = forensics.store.life("r", 0)
        assert life is not None
        assert len(life.trajectory) == 4
        ticks = [t for t, _ in life.trajectory]
        assert ticks == sorted(ticks)

    def test_alert_log_is_bounded(self):
        from repro.obs.forensics.store import AlertLogEntry

        store = LineageStore(max_alerts=3)
        for i in range(5):
            store.log_alert(AlertLogEntry(float(i), "r", "extent > 0", "fired"))
        assert len(store.alert_log) == 3
        assert store.alert_log[0].tick == 2.0


class TestCompaction:
    def test_fids_survive_rid_renumbering(self):
        db, forensics = _plain_db()
        before = {
            rid: life.fid for rid, life in forensics.store._lives["r"].items()
        }
        db.query("CONSUME SELECT v FROM r WHERE v % 2 = 0")  # tombstones
        table = db.table("r")
        remap = table.compact()
        assert remap, "compaction should have renumbered something"
        for old_rid, new_rid in remap.items():
            if old_rid in before:
                life = forensics.store.life("r", new_rid)
                assert life is not None
                assert life.fid == before[old_rid]
        # dead rows' records kept their fids too
        dead_fids = {r.fid for r in forensics.deaths("r")}
        live_fids = {life.fid for life in forensics.store._lives["r"].values()}
        assert dead_fids.isdisjoint(live_fids)


class TestSpots:
    def test_contiguous_fungus_deaths_group_into_veins(self):
        store = LineageStore()
        for rid in range(12):
            store.born("r", rid, 0.0)
        for rid in (0, 1, 2, 3, 4, 9, 10):
            store.infected("r", rid, "egi", "seed", None, 1.0)
            store.died("r", rid, "decay", 2.0 + rid * 0.5)
        spots = store.spots("r")
        assert [(s.fid_lo, s.fid_hi, s.size) for s in spots] == [
            (0, 4, 5),
            (9, 10, 2),
        ]
        first = spots[0]
        assert first.fungi == ("egi",)
        assert first.birth_tick == 1.0
        assert first.growth[-1][1] == 5  # cumulative count reaches the size
        counts = [n for _, n in first.growth]
        assert counts == sorted(counts)

    def test_non_fungus_deaths_are_not_spots(self):
        db, forensics = _plain_db()
        db.query("CONSUME SELECT v FROM r")
        assert forensics.spots("r") == []
        assert "no rot spots" in forensics.spots_text("r")

    def test_egi_run_reconstructs_at_least_one_spot(self):
        db, forensics = _egi_db(rows=60, rate=0.5)
        db.tick(40)
        spots = forensics.spots("r")
        assert spots
        assert all(s.first_death <= s.last_death for s in spots)
        assert "rot spots in 'r'" in forensics.spots_text("r")


class TestAudit:
    def test_clean_run_audits_clean(self):
        db, forensics = _egi_db()
        db.tick(30)
        db.query("CONSUME SELECT v FROM r WHERE v < 5")
        assert forensics.audit() == []

    def test_unknown_cause_is_flagged(self):
        store = LineageStore()
        store._remember(
            DeathRecord(
                fid=0, table="r", rid=0, cause="mystery",
                born_tick=None, death_tick=1.0,
            )
        )
        problems = store.audit()
        assert any("unknown death cause" in p for p in problems)

    def test_truncated_lineage_is_flagged_except_for_restored_over(self):
        orphan = (InfectionEvent("egi", "spread", None, 1.0),)
        store = LineageStore()
        store._remember(
            DeathRecord(
                fid=0, table="r", rid=0, cause="evicted",
                born_tick=0.0, death_tick=1.0, fungus="egi",
                origin="spread", infections=orphan,
            )
        )
        store._remember(
            DeathRecord(
                fid=1, table="r", rid=1, cause="restored-over",
                born_tick=0.0, death_tick=1.0, fungus="egi",
                origin="spread", infections=orphan,
            )
        )
        problems = store.audit()
        assert len(problems) == 1
        assert "fid 0" in problems[0]


class TestRendering:
    def test_why_text_shows_cause_query_and_terminus(self):
        db, forensics = _plain_db()
        sql = "CONSUME SELECT v FROM r WHERE v = 1"
        db.query(sql)
        text = forensics.why_text("r", 1)
        assert text.startswith("why r rid 1:")
        assert "[consumed" in text
        assert sql in text
        assert "died uninfected" in text

    def test_why_text_renders_spread_hops(self):
        db, forensics = _egi_db()
        db.tick(30)
        spread = next(
            r for r in forensics.deaths("r") if r.origin == "spread"
        )
        text = forensics.why_text("r", spread.fid, by_fid=True)
        assert "spread from fid" in text
        assert "seeded by egi" in text
        assert "chain complete" in text

    def test_trajectory_line_in_why_text(self):
        db = FungusDB(seed=2)
        db.create_table(
            "r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.4)
        )
        forensics = db.enable_forensics()
        db.insert("r", {"v": 1})
        db.tick(4)
        text = forensics.why_text("r", 0)
        assert "f trajectory:" in text


class TestAcceptance:
    """The ISSUE's contract: a seeded 200-tick EGI run is fully accounted."""

    def test_every_removed_tuple_has_a_complete_death_record(self):
        db, forensics = _egi_db(seed=42, rows=60, rate=0.25)
        db.tick(200)
        store = forensics.store
        assert forensics.audit() == []
        live_fids = {life.fid for life in store._lives.get("r", {}).values()}
        dead_fids = set(store._deaths.get("r", {}))
        # fids partition the insertion ordinals: every tuple is either
        # still alive or closed into exactly one death record
        assert live_fids.isdisjoint(dead_fids)
        assert live_fids | dead_fids == set(range(store._next_fid["r"]))
        assert len(dead_fids) == 60 - db.extent("r")
        for record in forensics.deaths("r"):
            assert store.resolve_chain("r", record).complete
