"""Experiment registry and results.

Each module in :mod:`repro.experiments` registers a ``run(scale)``
callable under its experiment id (F1..F6, T1..T4). ``scale`` selects
problem size: ``"smoke"`` for CI/benchmarks, ``"paper"`` for the full
series recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import BenchError

#: A series bundle: (x axis name, x values, {series name: values}).
SeriesBundle = tuple[str, Sequence[Any], Mapping[str, Sequence[Any]]]


@dataclass
class ExperimentResult:
    """Everything one experiment produced.

    ``headers``/``rows`` hold the table form (T* experiments);
    ``series`` holds named figure series (F* experiments). Experiments
    may fill both. ``checks`` maps qualitative-claim names to booleans —
    the shape assertions ("fungus bounded, control unbounded") that
    stand in for matching the paper's (nonexistent) absolute numbers.
    ``wall_clock_checks`` names the ones whose predicate compares
    measured times: they count everywhere except tier-1, which must not
    depend on how busy the machine is.
    """

    experiment_id: str
    title: str
    claim: str
    scale: str
    headers: Sequence[str] = ()
    rows: Sequence[Sequence[Any]] = ()
    series: dict[str, SeriesBundle] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    wall_clock_checks: set[str] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def add_series(
        self,
        name: str,
        x_name: str,
        x_values: Sequence[Any],
        series: Mapping[str, Sequence[Any]],
    ) -> None:
        """Attach one figure's series."""
        self.series[name] = (x_name, x_values, series)

    def check(self, name: str, passed: bool, *, wall_clock: bool = False) -> None:
        """Record one shape assertion outcome.

        ``wall_clock=True`` marks a predicate derived from timings.
        """
        self.checks[name] = passed
        if wall_clock:
            self.wall_clock_checks.add(name)

    @property
    def all_checks_pass(self) -> bool:
        """True when every recorded shape assertion held."""
        return all(self.checks.values())


RunFn = Callable[[str], ExperimentResult]

REGISTRY: dict[str, RunFn] = {}


def register(experiment_id: str) -> Callable[[RunFn], RunFn]:
    """Decorator: register an experiment's run function under its id."""

    def deco(fn: RunFn) -> RunFn:
        if experiment_id in REGISTRY:
            raise BenchError(f"experiment {experiment_id!r} registered twice")
        REGISTRY[experiment_id] = fn
        return fn

    return deco


def _ensure_loaded() -> None:
    # importing the package populates REGISTRY via the @register decorators
    import repro.experiments  # noqa: F401


def run_experiment(experiment_id: str, scale: str = "smoke") -> ExperimentResult:
    """Run one experiment by id."""
    _ensure_loaded()
    try:
        fn = REGISTRY[experiment_id]
    except KeyError:
        raise BenchError(
            f"unknown experiment {experiment_id!r}; have {sorted(REGISTRY)}"
        ) from None
    return fn(scale)


def run_all(scale: str = "smoke") -> list[ExperimentResult]:
    """Run every registered experiment, in id order."""
    _ensure_loaded()
    return [REGISTRY[eid](scale) for eid in sorted(REGISTRY)]
