"""Smoke-scale integration tests: every experiment runs and its shape
checks — the reproduction's stand-in for matching published numbers —
all hold.

Checks marked ``wall_clock`` compare measured times; tier-1 pins which
ones they are but does not assert them (``python -m repro.experiments
smoke`` in the CI bench job does).
"""

import functools

import pytest

import repro.experiments  # noqa: F401 — populates REGISTRY
from repro.bench.reporting import render_result
from repro.bench.runner import REGISTRY, run_experiment

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
    failed = [
        name
        for name, ok in result.checks.items()
        if not ok and name not in result.wall_clock_checks
    ]
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


def test_wall_clock_checks_are_exactly_the_timing_predicates():
    results = [_cached_run(eid) for eid in ALL_EXPERIMENTS]
    marked = {r.experiment_id: r.wall_clock_checks for r in results if r.wall_clock_checks}
    assert marked == {
        "T3": {
            "EGI tick is cheaper than full-scan fungi on the largest table",
            "EGI tick grows much slower than table size",
            "the bare decay clock costs at most 6.2 us per ingested row",
            "distill-on-evict dominates the pipeline cost, not the clock",
            "telemetry-disabled ingest repeats within 5% (zero-overhead gate)",
        },
        "T4": {"healthy answers the workload faster"},
    }
    for result in results:
        assert result.wall_clock_checks <= set(result.checks)


def test_experiments_are_deterministic():
    """Same scale, same seed plumbing -> identical table rows."""
    a = run_experiment("F3", scale="smoke")
    b = run_experiment("F3", scale="smoke")
    assert list(a.rows) == list(b.rows)
