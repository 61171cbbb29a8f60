"""Shared experiment plumbing: results, the registry, scales and arms.

Each experiment module registers a ``run(scale)`` callable under its
id (F1..F7, T1..T5). ``scale`` selects problem size: ``"smoke"`` for
tier-1 and CI, ``"paper"`` for the full series recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.db import FungusDB
from repro.core.fungus import Fungus
from repro.core.policy import EvictionMode
from repro.errors import BenchError
from repro.workload.arrival import ArrivalProcess
from repro.workload.generators import RecordGenerator, SensorGenerator
from repro.workload.replay import ReplayDriver, ReplayStats

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
    Every check is deterministic: timings belong to ``benchmarks/``.
    """

    experiment_id: str
    title: str
    claim: str
    scale: str
    headers: Sequence[str] = ()
    rows: Sequence[Sequence[Any]] = ()
    series: dict[str, SeriesBundle] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
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

    def check(self, name: str, passed: bool) -> None:
        """Record one shape assertion outcome."""
        self.checks[name] = passed

    @property
    def all_checks_pass(self) -> bool:
        """True when every recorded shape assertion held."""
        return all(self.checks.values())


RunFn = Callable[[str], ExperimentResult]

#: Every experiment module's ``run``, by id; importing
#: :mod:`repro.experiments` (which any import of this module does
#: first) fills it.
REGISTRY: dict[str, RunFn] = {}


def register(experiment_id: str) -> Callable[[RunFn], RunFn]:
    """Decorator: register an experiment's run function under its id."""

    def deco(fn: RunFn) -> RunFn:
        if experiment_id in REGISTRY:
            raise BenchError(f"experiment {experiment_id!r} registered twice")
        REGISTRY[experiment_id] = fn
        return fn

    return deco


def run_experiment(experiment_id: str, scale: str = "smoke") -> ExperimentResult:
    """Run one experiment by id."""
    try:
        fn = REGISTRY[experiment_id]
    except KeyError:
        raise BenchError(
            f"unknown experiment {experiment_id!r}; have {sorted(REGISTRY)}"
        ) from None
    return fn(scale)


def run_all(scale: str = "smoke") -> list[ExperimentResult]:
    """Run every registered experiment, in id order."""
    return [REGISTRY[eid](scale) for eid in sorted(REGISTRY)]


#: Every experiment runs at one of these scales.
SCALES = ("smoke", "paper")


def check_scale(scale: str) -> None:
    """Reject unknown scale names early, with the valid set in the error."""
    if scale not in SCALES:
        raise BenchError(f"unknown scale {scale!r}; use one of {SCALES}")


def pick(scale: str, smoke: Any, paper: Any) -> Any:
    """Choose a parameter value by scale."""
    check_scale(scale)
    return smoke if scale == "smoke" else paper


def build_sensor_db(
    fungus: Fungus | None,
    seed: int = 1,
    table: str = "readings",
    eviction: EvictionMode = EvictionMode.EAGER,
    distill_on_evict: bool = True,
    compact_every: int = 0,
    num_sensors: int = 25,
) -> tuple[FungusDB, SensorGenerator]:
    """A FungusDB with one sensor table plus its record generator."""
    db = FungusDB(seed=seed)
    generator = SensorGenerator(num_sensors=num_sensors, seed=seed)
    db.create_table(
        table,
        generator.schema,
        fungus=fungus,
        eviction=eviction,
        distill_on_evict=distill_on_evict,
        compact_every=compact_every,
    )
    return db, generator


def run_arm(
    fungus: Fungus | None,
    arrivals: ArrivalProcess,
    ticks: int,
    probe: Callable[[int, FungusDB, ReplayStats], None] | None = None,
    seed: int = 1,
    generator: RecordGenerator | None = None,
    **table_kwargs: Any,
) -> tuple[FungusDB, ReplayStats]:
    """One experiment arm: fresh db + replay of the workload."""
    db = FungusDB(seed=seed)
    if generator is None:
        generator = SensorGenerator(num_sensors=25, seed=seed)
    db.create_table("readings", generator.schema, fungus=fungus, **table_kwargs)
    driver = ReplayDriver(db, "readings", arrivals, generator)
    if probe is not None:
        driver.probe_each_tick(probe)
    stats = driver.run(ticks)
    return db, stats


def extent_probe(table: str = "readings") -> Callable[[int, FungusDB, ReplayStats], None]:
    """A probe recording the table extent per tick under key 'extent'."""

    def probe(tick: int, db: FungusDB, stats: ReplayStats) -> None:
        stats.record("extent", db.extent(table))

    return probe
