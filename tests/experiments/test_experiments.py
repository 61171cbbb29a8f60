"""Smoke-scale integration tests: every experiment runs and its shape
checks — the reproduction's stand-in for matching published numbers —
all hold.

Every check is deterministic (timings live in ``benchmarks/``), so
tier-1 asserts each one, and two fresh runs render the same report.
"""

import functools

import pytest

from repro.experiments.common import REGISTRY, run_experiment
from repro.experiments.report import render_result

ALL_EXPERIMENTS = sorted(REGISTRY)


@functools.lru_cache(maxsize=None)
def _cached_run(experiment_id: str):
    """Experiments are deterministic and side-effect free: run each once."""
    return run_experiment(experiment_id, scale="smoke")


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_experiment_checks_pass(experiment_id):
    result = _cached_run(experiment_id)
    assert result.experiment_id == experiment_id
    assert result.scale == "smoke"
    assert result.checks, f"{experiment_id} recorded no shape checks"
    failed = [name for name, ok in result.checks.items() if not ok]
    assert not failed, (
        f"{experiment_id} failed shape checks {failed}\n" + render_result(result)
    )


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_experiment_reports_render(experiment_id):
    result = _cached_run(experiment_id)
    text = render_result(result)
    assert result.experiment_id in text
    assert result.claim in text
    # every experiment must produce either a table or at least one series
    assert result.rows or result.series


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
def test_experiments_are_deterministic(experiment_id):
    """Same scale, same seed plumbing -> the same report and check map."""
    a = _cached_run(experiment_id)
    b = run_experiment(experiment_id, scale="smoke")
    assert render_result(a) == render_result(b)
    assert a.checks == b.checks
