"""Tests for the shared experiment plumbing (experiments.common)."""

import pytest

from repro.errors import BenchError
from repro.experiments.common import (
    build_sensor_db,
    check_scale,
    extent_probe,
    pick,
    run_arm,
)
from repro.fungi import LinearDecayFungus
from repro.workload.arrival import ConstantArrivals


class TestScales:
    def test_valid_scales(self):
        check_scale("smoke")
        check_scale("paper")

    def test_invalid_scale(self):
        with pytest.raises(BenchError, match="unknown scale"):
            check_scale("galactic")

    def test_pick(self):
        assert pick("smoke", 1, 2) == 1
        assert pick("paper", 1, 2) == 2

    def test_pick_validates(self):
        with pytest.raises(BenchError):
            pick("huge", 1, 2)


class TestBuilders:
    def test_build_sensor_db(self):
        db, generator = build_sensor_db(LinearDecayFungus(rate=0.1), seed=3)
        row = generator.generate(0)
        db.insert("readings", row)
        assert db.extent("readings") == 1

    def test_run_arm_produces_stats(self):
        db, stats = run_arm(
            LinearDecayFungus(rate=0.5),
            ConstantArrivals(4),
            ticks=5,
            probe=extent_probe(),
        )
        assert stats.inserted == 20
        assert len(stats.series["extent"]) == 5
        # rate 0.5 and eager eviction: a batch survives exactly one
        # probe (f=0.5 after its first tick, evicted during its second)
        assert stats.series["extent"][-1] == 4

    def test_run_arm_forwards_table_kwargs(self):
        db, _ = run_arm(
            None, ConstantArrivals(1), ticks=1, compact_every=1, distill_on_evict=False
        )
        assert db.policies["readings"].compact_every == 1

    def test_extent_probe_records_extent(self):
        db, stats = run_arm(None, ConstantArrivals(2), ticks=3, probe=extent_probe())
        assert stats.series["extent"] == [2, 4, 6]


class TestSuiteEntryPoint:
    @pytest.mark.parametrize(
        "argv", [["--help"], ["-h"], ["galactic"], ["smoke", "paper"]]
    )
    def test_anything_but_one_scale_prints_usage_and_runs_nothing(
        self, argv, monkeypatch, capsys
    ):
        import repro.experiments.__main__ as entry

        monkeypatch.setattr(entry, "run_all", lambda scale: pytest.fail("ran"))
        assert entry.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: python -m repro.experiments [smoke|paper]")
