"""Tests for repro.obs.dashboard — the terminal rot dashboard."""

import asyncio

import pytest

from repro import EGIFungus
from repro.core.db import FungusDB
from repro.core.freshness import band_of
from repro.obs.dashboard import (
    BAND_CHARS,
    HOLE_CHAR,
    _rot_map,
    build_demo_db,
    fetch_server_stats,
    main,
    render_frame,
    render_server_panel,
)
from repro.storage.schema import Schema
from repro.storage.rowset import RowSet


class TestRenderFrame:
    def test_empty_db_renders(self):
        frame = render_frame(FungusDB(seed=1))
        assert "rot dashboard" in frame
        assert "legend" in frame

    def test_table_sections_present(self):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        for i in range(5):
            db.insert("r", {"v": i})
        frame = render_frame(db, width=20)
        assert "table r: extent=5" in frame
        assert "bands [" in frame
        assert "rotmap [" in frame
        assert "spots=0" in frame

    def test_holes_render_as_spaces(self):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        for i in range(10):
            db.insert("r", {"v": i})
        db.table("r").evict(RowSet(range(5)), "manual")
        frame = render_frame(db, width=10)
        rotmap = next(l for l in frame.splitlines() if "rotmap" in l)
        assert "     " in rotmap  # the first half of the rid space is a hole
        assert "holes=1" in frame

    def test_rotten_rows_render_as_dots(self):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        for i in range(4):
            db.insert("r", {"v": i})
        for rid in range(4):
            db.table("r").set_freshness(rid, 0.05)
        frame = render_frame(db, width=4)
        rotmap = next(l for l in frame.splitlines() if "rotmap" in l)
        assert "...." in rotmap
        assert "spots=1" in frame

    def test_rates_shown_with_telemetry(self):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        db.enable_telemetry()
        frame = render_frame(db)
        assert "rates evict=" in frame


def _walked_rot_map(table, width: int) -> str:
    """The rot map as a per-rid walk: one freshness read per live rid."""
    allocated = table.storage.allocated
    if allocated == 0:
        return "-" * width
    width = min(width, allocated)
    chars = []
    for i in range(width):
        lo = i * allocated // width
        hi = max(lo + 1, (i + 1) * allocated // width)
        values = [
            table.freshness(rid) for rid in range(lo, hi) if table.storage.is_live(rid)
        ]
        chars.append(
            BAND_CHARS[band_of(sum(values) / len(values))] if values else HOLE_CHAR
        )
    return "".join(chars)


class TestRotMap:
    @pytest.mark.parametrize("seed", range(6))
    def test_bucket_means_match_a_per_rid_walk(self, seed):
        """Seeded EGI rot with consumed holes, at widths that split the
        rid space into uneven buckets and one wider than the table."""
        db = FungusDB(seed=seed)
        db.create_table(
            "r", Schema.of(v="int"), fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.2)
        )
        db.insert_many("r", [{"v": i} for i in range(100)])
        table = db.table("r")
        for step in range(6):
            db.tick(3)
            low = 13 * step
            db.query(f"CONSUME SELECT v FROM r WHERE v >= {low} AND v < {low + 9}")
            for width in (1, 7, 13, 60, table.storage.allocated + 5):
                assert _rot_map(table, width) == _walked_rot_map(table, width)
        assert table.storage.tombstones > 0
        assert HOLE_CHAR in _rot_map(table, table.storage.allocated)

    def test_empty_table_is_a_dash_line(self):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        assert _rot_map(db.table("r"), 5) == "-----"


class TestDemoAndMain:
    def test_build_demo_db_has_telemetry(self):
        db = build_demo_db(seed=3, fungus_spec="egi:2,0.2")
        assert db.telemetry is not None
        assert "demo" in db.tables

    def test_main_once_writes_prometheus(self, tmp_path, capsys):
        from repro.obs.export import parse_prometheus

        prom = tmp_path / "m.prom"
        assert main(["--once", "--no-clear", "--prom", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "rot dashboard" in out
        assert parse_prometheus(prom.read_text())

    def test_main_multi_tick_run(self, capsys):
        assert main(["--ticks", "12", "--interval", "0", "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert out.count("rot dashboard") == 12


class TestServerPanel:
    STATS = {
        "requests": 150.0,
        "rejected": 3.0,
        "slow": 2.0,
        "queue_depth": 5.0,
        "sessions": 8.0,
        "ticker_lag": 0.0123,
    }

    def test_first_frame_has_no_rate(self):
        panel = render_server_panel(self.STATS, None, 0.25)
        assert "qps=--" in panel
        assert "queue=5" in panel
        assert "sessions=8" in panel
        assert "slow=2" in panel
        assert "ticker_lag=12.3ms" in panel

    def test_qps_is_the_request_delta_over_interval(self):
        previous = dict(self.STATS, requests=100.0)
        panel = render_server_panel(self.STATS, previous, 0.5)
        assert "qps=100" in panel  # (150 - 100) / 0.5s

    def test_counter_reset_clamps_to_zero(self):
        previous = dict(self.STATS, requests=900.0)  # server restarted
        panel = render_server_panel(self.STATS, previous, 0.5)
        assert "qps=0" in panel

    def test_fetch_scrapes_a_live_ops_endpoint(self):
        from tests.server.harness import connect, running_server, seeded_db

        async def scenario():
            db = seeded_db()
            async with running_server(db, ops_port=0) as server:
                client = await connect(server)
                try:
                    await client.insert("r", {"k": 1, "v": 1})
                    await client.query("SELECT k FROM r")
                finally:
                    await client.close()
                url = f"http://127.0.0.1:{server.ops_port}"
                loop = asyncio.get_running_loop()
                # urllib blocks; keep the server's loop responsive
                return await loop.run_in_executor(None, fetch_server_stats, url)

        stats = asyncio.run(scenario())
        assert stats["requests"] >= 2
        assert stats["queue_depth"] == 0.0
        assert stats["rejected"] == 0.0
        assert "qps=" in render_server_panel(stats, None, 0.25)


class TestForensicsOverlay:
    def _db(self, rules=("extent > 3",)):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        db.enable_forensics(rules=rules)
        for i in range(5):
            db.insert("r", {"v": i})
        return db

    def test_death_counts_per_table(self):
        db = self._db(rules=())
        db.query("CONSUME SELECT v FROM r WHERE v < 2")
        frame = render_frame(db)
        assert "deaths consumed=2" in frame

    def test_firing_alerts_block(self):
        db = self._db()
        db.tick(1)
        frame = render_frame(db)
        assert "ALERTS (1 firing):" in frame
        assert "extent > 3" in frame

    def test_armed_but_quiet_rules_line(self):
        db = self._db()
        frame = render_frame(db)  # no tick yet: rule never evaluated
        assert "alerts: none firing (1 rule(s) armed)" in frame

    def test_no_forensics_no_alert_lines(self):
        frame = render_frame(FungusDB(seed=1))
        assert "alerts" not in frame.lower()
