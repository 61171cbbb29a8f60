"""F5 — extinction: how fast a relation completely disappears.

Paper claims operationalised:

* "The extent of table R decays with a periodic clock of T seconds
  using a data fungus F until it has been completely disappeared." —
  we measure ticks-to-extinction of a quiesced relation.
* "The speed by which it decays could come both from the initial
  infection at a certain time stamp, but also the bi-directional
  growth along the time axes." — the sweep separates the two
  mechanisms: seeds-per-cycle (infection pressure) × decay rate ×
  spread on/off (the bi-directional growth).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, build_sensor_db, pick, register
from repro.fungi import EGIFungus

CLAIM = (
    "Extinction time falls with infection pressure and decay rate, and "
    "neighbour spread (bi-directional growth) accelerates it dramatically."
)


def ticks_to_extinction(
    n_rows: int, seeds: int, rate: float, spread: bool, max_ticks: int
) -> int | None:
    """Run EGI on a quiesced table; ticks until extent 0 (None = budget)."""
    fungus = EGIFungus(seeds_per_cycle=seeds, decay_rate=rate, spread=spread)
    db, generator = build_sensor_db(fungus, seed=10)
    db.insert_many("readings", [generator.generate(0) for _ in range(n_rows)])
    for tick in range(1, max_ticks + 1):
        db.tick(1)
        if db.extent("readings") == 0:
            return tick
    return None


@register("F5")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the extinction sweep at the given scale."""
    n_rows = pick(scale, 300, 1_500)
    max_ticks = pick(scale, 3_000, 15_000)
    seeds_sweep = pick(scale, (1, 4), (1, 2, 4, 8))
    rate_sweep = pick(scale, (0.2, 0.5), (0.1, 0.2, 0.5))

    headers = ("seeds/cycle", "decay rate", "spread", "ticks to extinction")
    rows = []
    outcomes: dict[tuple, int | None] = {}
    for seeds in seeds_sweep:
        for rate in rate_sweep:
            for spread in (True, False):
                t = ticks_to_extinction(n_rows, seeds, rate, spread, max_ticks)
                outcomes[(seeds, rate, spread)] = t
                rows.append(
                    (seeds, rate, "yes" if spread else "no", t if t is not None else f">{max_ticks}")
                )

    result = ExperimentResult(
        experiment_id="F5",
        title="Extinction sweep: seeds x decay rate x spread",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )
    result.notes.append(f"relation size {n_rows}, quiesced (no ingest)")

    def t_of(seeds: float, rate: float, spread: bool) -> float:
        t = outcomes[(seeds, rate, spread)]
        return float(t) if t is not None else float("inf")

    lo_seeds, hi_seeds = seeds_sweep[0], seeds_sweep[-1]
    lo_rate, hi_rate = rate_sweep[0], rate_sweep[-1]

    result.check(
        "everything with spread goes extinct inside the budget",
        all(
            outcomes[(s, r, True)] is not None
            for s in seeds_sweep
            for r in rate_sweep
        ),
    )
    result.check(
        "more seeds -> faster extinction (at every rate, with spread)",
        all(t_of(hi_seeds, r, True) <= t_of(lo_seeds, r, True) for r in rate_sweep),
    )
    # with spread, extinction time is dominated by spot-growth speed, so
    # the rate effect is asserted on the no-spread arms where each
    # infected tuple deterministically dies ceil(1/rate) cycles later
    result.check(
        "higher decay rate -> faster extinction (without spread)",
        all(t_of(s, hi_rate, False) <= t_of(s, lo_rate, False) for s in seeds_sweep),
    )
    result.check(
        "bi-directional spread accelerates extinction everywhere",
        all(
            t_of(s, r, True) < t_of(s, r, False)
            for s in seeds_sweep
            for r in rate_sweep
        ),
    )
    return result
