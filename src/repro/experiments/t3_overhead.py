"""T3 — the work of the decay clock.

Paper claim operationalised: Law 1 runs "with a periodic clock of T
seconds" — so the fungus cycle is on the hot path and what it touches
matters. This experiment counts, from each cycle's ``DecayReport``,
the rows one cycle decays per fungus as a function of live extent:
full-scan fungi (retention/linear) decay every live row each cycle,
so their work scales linearly with the extent, while EGI's cycle
touches only seeds + the infected frontier, the same few rows at every
size. The counts are deterministic; what a cycle *costs* in time is
``benchmarks/bench_clock.py``'s same-process gates.

It also ingests through the clock with metrics collection on and
checks that the collector counts every ingested row exactly.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, build_sensor_db, pick, register
from repro.fungi import EGIFungus, LinearDecayFungus, RetentionFungus

CLAIM = (
    "The periodic decay clock is affordable: spot fungi (EGI) touch "
    "a near-constant number of rows per cycle; full-scan fungi scale with the extent."
)

#: cycles counted per fungus and size
CYCLES = 3

#: two full-scan fungi and the spot fungus; decay rates are ~0 so the
#: extent stays constant over the cycles
FUNGI = {
    "retention": lambda: RetentionFungus(max_age=10_000),
    "linear": lambda: LinearDecayFungus(rate=1e-6),
    "egi": lambda: EGIFungus(seeds_per_cycle=2, decay_rate=1e-6),
}


@register("T3")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the clock-work experiment at the given scale."""
    sizes = pick(scale, (2_000, 20_000), (2_000, 20_000, 80_000))
    ingest_rows = pick(scale, 2_000, 10_000)

    headers = ("fungus", "cycle", *[f"rows decayed @{n}" for n in sizes])
    rows = []
    decayed: dict[str, list[list[int]]] = {}  # fungus -> per size -> per cycle
    for name, make in FUNGI.items():
        per_size = []
        for n_rows in sizes:
            db, generator = build_sensor_db(make(), seed=9)
            db.insert_many("readings", [generator.generate(0) for _ in range(n_rows)])
            policy = db.policies["readings"]
            policy.keep_reports = True
            db.tick(CYCLES)
            per_size.append([report.decayed for report in policy.stats.reports])
        decayed[name] = per_size
        for cycle in range(CYCLES):
            rows.append((name, cycle + 1, *[counts[cycle] for counts in per_size]))

    # ingest through the clock, 100-row batches with a tick after each,
    # with metrics collection on: the collector must count every row
    db, generator = build_sensor_db(EGIFungus(seeds_per_cycle=2, decay_rate=0.2), seed=11)
    db.enable_telemetry()
    batch = [generator.generate(0) for _ in range(100)]
    for _ in range(0, ingest_rows, 100):
        db.insert_many("readings", batch)
        db.tick(1)

    result = ExperimentResult(
        experiment_id="T3",
        title="Decay-clock work: rows each fungus cycle decays",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )

    small, large = sizes[0], sizes[-1]
    work = {name: [sum(counts) for counts in per_size] for name, per_size in decayed.items()}
    growth = {name: totals[-1] / max(totals[0], 1) for name, totals in work.items()}
    size_ratio = large / small
    result.notes.append(
        f"work growth {small}->{large} rows: "
        + ", ".join(f"{n}={g:.1f}x" for n, g in growth.items())
    )

    result.check(
        "full-scan fungi decay every live row each cycle",
        all(
            counts == [n_rows] * CYCLES
            for name in ("retention", "linear")
            for n_rows, counts in zip(sizes, decayed[name])
        ),
    )
    result.check(
        "EGI cycle decays fewer rows than full-scan fungi on the largest table",
        work["egi"][-1] < work["retention"][-1] and work["egi"][-1] < work["linear"][-1],
    )
    result.check(
        "EGI work per cycle grows much slower than table size",
        growth["egi"] <= size_ratio / 2,
    )
    result.check(
        "metrics collection is exact: inserts_total equals rows ingested",
        db.telemetry.registry.value("repro_inserts_total", table="readings")
        == float(ingest_rows),
    )
    return result
