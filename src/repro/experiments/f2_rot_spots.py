"""F2 — rot-spot dynamics: EGI as Blue Cheese.

Paper claims operationalised:

* "EGI creates rotting spots in R, which leads to removing complete
  insertion ranges when not being taking care of by its owner." —
  after ingest stops, we track the holes (tombstoned insertion ranges)
  EGI cuts out of the row space.
* "The effect of EGI is similar to Blue Cheese ... It remains edible
  for a long time though." — while the relation shrinks, the fraction
  of the *surviving* extent that is still edible (not ROTTEN) should
  stay high: rot is spatially concentrated, not smeared.

Protocol: insert N tuples, quiesce, then run EGI cycles and probe the
health report every tick until extinction (or the tick budget).
"""

from __future__ import annotations

from repro.core.health import measure_health
from repro.experiments.common import ExperimentResult, build_sensor_db, pick, register
from repro.fungi import EGIFungus

CLAIM = (
    "EGI rots in contiguous insertion ranges (spots/holes), and the "
    "surviving extent remains mostly edible while spots grow."
)


@register("F2")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the rot-spot experiment at the given scale."""
    n_rows = pick(scale, 400, 2_000)
    max_ticks = pick(scale, 300, 1_500)
    fungus = EGIFungus(seeds_per_cycle=2, decay_rate=0.25)
    db, generator = build_sensor_db(fungus, seed=2)

    db.insert_many("readings", [generator.generate(0) for _ in range(n_rows)])
    table = db.table("readings")

    ticks: list[int] = []
    live_fraction: list[float] = []
    edible_fraction: list[float] = []
    hole_count: list[int] = []
    largest_hole: list[int] = []
    mean_freshness: list[float] = []

    extinction_tick = None
    for tick in range(max_ticks):
        db.tick(1)
        health = measure_health(table)
        ticks.append(tick)
        live_fraction.append(health.extent / n_rows)
        edible_fraction.append(health.edible_fraction)
        hole_count.append(len(health.holes))
        largest_hole.append(health.largest_hole)
        mean_freshness.append(
            health.mean_freshness if health.mean_freshness is not None else 0.0
        )
        if health.extent == 0:
            extinction_tick = tick
            break

    result = ExperimentResult(
        experiment_id="F2",
        title="Rot spots: EGI hole structure after ingest stops",
        claim=CLAIM,
        scale=scale,
    )
    stride = max(1, len(ticks) // 40)
    sampled = list(range(0, len(ticks), stride))
    result.add_series(
        "rot progression",
        "tick",
        [ticks[i] for i in sampled],
        {
            "live_fraction": [round(live_fraction[i], 3) for i in sampled],
            "edible_fraction": [round(edible_fraction[i], 3) for i in sampled],
            "holes": [hole_count[i] for i in sampled],
            "largest_hole": [largest_hole[i] for i in sampled],
            "mean_freshness": [round(mean_freshness[i], 3) for i in sampled],
        },
    )
    if extinction_tick is not None:
        result.notes.append(f"relation completely disappeared at tick {extinction_tick}")
    else:
        result.notes.append(f"not extinct after {max_ticks} ticks")

    # shape checks
    result.check("holes appear", max(hole_count) >= 1)
    result.check(
        "holes grow into large insertion ranges",
        max(largest_hole) >= n_rows // 20,
    )
    half_eaten = next((i for i, lf in enumerate(live_fraction) if lf <= 0.5), None)
    result.check(
        "still mostly edible when half eaten (Blue Cheese)",
        half_eaten is not None and edible_fraction[half_eaten] >= 0.6,
    )
    result.check(
        "extent is non-increasing after ingest stops",
        all(
            b <= a + 1e-9 for a, b in zip(live_fraction, live_fraction[1:])
        ),
    )
    result.check(
        "eventual extinction (Law 1)",
        extinction_tick is not None or live_fraction[-1] < 0.05,
    )
    return result
