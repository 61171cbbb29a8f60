"""T1 — the fungus design space: rate, what, how.

Paper claim operationalised: "many more data fungi can be considered,
based on their rate of decay, what to decay, how to decay". This
experiment puts every fungus in the library under the same constant
Poisson ingest and tabulates steady-state behaviour:

* steady extent (mean over the last third of the run),
* mean freshness of the live extent,
* eviction rate (tuples/tick over the last third),
* mean tuple lifetime (insert→evict, over evicted tuples).

Each fungus is parameterised for a nominal ~20-tick tuple lifetime, so
differences in the table are differences in *shape*, not budget.
"""

from __future__ import annotations

from repro.core.db import FungusDB
from repro.core.events import TupleEvictedBatch
from repro.core.fungus import Fungus
from repro.experiments.common import ExperimentResult, pick, register
from repro.fungi import (
    BlueCheeseFungus,
    EGIFungus,
    ExponentialDecayFungus,
    LinearDecayFungus,
    NullFungus,
    PredicateFungus,
    RetentionFungus,
)
from repro.workload.arrival import PoissonArrivals
from repro.workload.generators import SensorGenerator
from repro.workload.replay import ReplayDriver, ReplayStats

CLAIM = (
    "Fungi differ in rate of decay, what to decay, how to decay; "
    "the same lifetime budget yields very different steady states."
)

LIFETIME = 20  # nominal ticks a tuple survives under each fungus


def _arms() -> dict[str, Fungus]:
    return {
        "null": NullFungus(),
        "retention": RetentionFungus(max_age=LIFETIME),
        "linear": LinearDecayFungus(rate=1.0 / LIFETIME),
        "exponential": ExponentialDecayFungus(half_life=LIFETIME / 4, evict_below=0.05),
        "egi": EGIFungus(seeds_per_cycle=2, decay_rate=0.25),
        "blue-cheese": BlueCheeseFungus(max_spots=3, base_rate=0.05, acceleration=0.3),
        "predicate(temp>25)": PredicateFungus(
            lambda attrs: attrs["temp"] > 25.0, rate=1.0 / LIFETIME, name="hot-only"
        ),
    }


def _run_arm(
    fungus: Fungus, ticks: int, rate: float
) -> tuple[ReplayStats, list[float], dict[int, int]]:
    """One fungus under the shared workload; returns probes + evictions."""
    lifetimes: list[float] = []
    evictions_by_tick: dict[int, int] = {}

    def on_evict(event: TupleEvictedBatch) -> None:
        inserted_at = event.columns[0]  # column 0 is the time column
        lifetimes.extend(event.tick - t for t in inserted_at)
        evictions_by_tick[int(event.tick)] = (
            evictions_by_tick.get(int(event.tick), 0) + len(event)
        )

    def probe(tick: int, db: FungusDB, stats: ReplayStats) -> None:
        stats.record("extent", db.extent("readings"))
        values = db.table("readings").freshness_values()
        stats.record("mean_f", sum(values) / len(values) if values else 1.0)

    db = FungusDB(seed=3)
    generator = SensorGenerator(num_sensors=25, seed=3)
    db.create_table("readings", generator.schema, fungus=fungus)
    db.bus.subscribe(TupleEvictedBatch, on_evict)
    driver = ReplayDriver(db, "readings", PoissonArrivals(rate, seed=3), generator)
    driver.probe_each_tick(probe)
    stats = driver.run(ticks)
    return stats, lifetimes, evictions_by_tick


@register("T1")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the fungus comparison at the given scale."""
    ticks = pick(scale, 60, 200)
    rate = pick(scale, 10.0, 20.0)
    steady_from = ticks * 2 // 3

    headers = (
        "fungus",
        "steady extent",
        "mean freshness",
        "evict/tick",
        "mean lifetime",
    )
    rows = []
    finals: dict[str, dict[str, float]] = {}

    for name, fungus in _arms().items():
        stats, lifetimes, evictions_by_tick = _run_arm(fungus, ticks, rate)
        extents = stats.series["extent"][steady_from:]
        mean_fs = stats.series["mean_f"][steady_from:]
        evict_rate = sum(
            count for tick, count in evictions_by_tick.items() if tick >= steady_from
        ) / max(ticks - steady_from, 1)
        steady_extent = sum(extents) / len(extents)
        mean_f = sum(mean_fs) / len(mean_fs)
        mean_lifetime = sum(lifetimes) / len(lifetimes) if lifetimes else float("nan")
        finals[name] = {
            "extent": steady_extent,
            "mean_f": mean_f,
            "evict_rate": evict_rate,
            "lifetime": mean_lifetime,
        }
        rows.append(
            (
                name,
                round(steady_extent, 1),
                round(mean_f, 3),
                round(evict_rate, 2),
                round(mean_lifetime, 1) if lifetimes else "never",
            )
        )

    result = ExperimentResult(
        experiment_id="T1",
        title="Fungus comparison under constant Poisson ingest",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )

    # shape checks
    result.check("null never evicts", finals["null"]["evict_rate"] == 0.0)
    result.check(
        "retention lifetime matches its window ±20%",
        abs(finals["retention"]["lifetime"] - LIFETIME) <= LIFETIME * 0.2,
    )
    result.check(
        "linear lifetime matches 1/rate ±20%",
        abs(finals["linear"]["lifetime"] - LIFETIME) <= LIFETIME * 0.2,
    )
    result.check(
        "every decay arm reaches a steady extent below the hoard",
        all(
            finals[name]["extent"] < finals["null"]["extent"]
            for name in finals
            if name != "null"
        ),
    )
    result.check(
        "exponential keeps a staler live set than the retention cliff",
        finals["exponential"]["mean_f"] <= finals["retention"]["mean_f"] + 0.15,
    )
    return result
