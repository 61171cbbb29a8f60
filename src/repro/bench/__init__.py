"""Benchmark harness: measurement, experiment results, reporting.

Every experiment module in :mod:`repro.experiments` returns an
:class:`~repro.bench.runner.ExperimentResult`; the helpers here time
code sections, format result tables/series as ASCII, and register the
experiments so ``python -m repro.experiments`` can run them all.
"""

from repro.bench.charts import line_chart
from repro.bench.measure import Timer, time_callable
from repro.bench.reporting import ascii_table, format_series, render_result
from repro.bench.runner import REGISTRY, ExperimentResult, register, run_all, run_experiment

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "Timer",
    "ascii_table",
    "format_series",
    "line_chart",
    "register",
    "render_result",
    "run_all",
    "run_experiment",
    "time_callable",
]
