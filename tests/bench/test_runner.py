"""Tests for repro.bench.runner."""

import pytest

from repro.bench.runner import REGISTRY, ExperimentResult, register, run_experiment
from repro.errors import BenchError


class TestExperimentResult:
    def test_checks_aggregate(self):
        result = ExperimentResult("X", "t", "c", "smoke")
        result.check("a", True)
        assert result.all_checks_pass
        result.check("b", False)
        assert not result.all_checks_pass

    def test_wall_clock_checks_are_tagged_and_still_count(self):
        result = ExperimentResult("X", "t", "c", "smoke")
        result.check("a", True)
        result.check("slow", False, wall_clock=True)
        assert result.wall_clock_checks == {"slow"}
        assert not result.all_checks_pass

    def test_add_series(self):
        result = ExperimentResult("X", "t", "c", "smoke")
        result.add_series("s", "tick", [0, 1], {"x": [1, 2]})
        assert result.series["s"][0] == "tick"


class TestRegistry:
    def test_all_ten_experiments_registered(self):
        import repro.experiments  # noqa: F401

        assert {"F1", "F2", "F3", "F4", "F5", "F6", "F7", "T1", "T2", "T3", "T4", "T5"} <= set(
            REGISTRY
        )

    def test_duplicate_registration_rejected(self):
        @register("ZZ-test")
        def run(scale):  # pragma: no cover - registration only
            raise AssertionError

        with pytest.raises(BenchError):
            register("ZZ-test")(run)
        del REGISTRY["ZZ-test"]

    def test_unknown_experiment(self):
        with pytest.raises(BenchError, match="unknown experiment"):
            run_experiment("NOPE")

    def test_unknown_scale_rejected(self):
        from repro.experiments.common import check_scale

        with pytest.raises(BenchError, match="unknown scale"):
            check_scale("huge")
