"""F1 — the chessboard: exponential ingest vs decay.

Paper claims operationalised:

* "Every 1.5 year we double the amount of data and processing power.
  A futile activity as the fable has clearly identified." — ingest
  doubles every ``doubling_period`` ticks (ChessboardArrivals).
* "Don't collect more rice (wheat) than you can eat, otherwise it will
  rot away in storage." — the control arm (no fungus) hoards every
  grain; the decay arms eat/rot it.

Arms: ``none`` (NullFungus control), ``retention`` (TTL), ``linear``
(constant decay — an equivalent lifetime bound), ``egi`` (the paper's
fungus with a *fixed* consumption rate).

Expected shapes (the checks):

* the control's extent equals cumulative arrivals (nothing rots);
* retention/linear keep only the last-lifetime window of arrivals —
  old squares rot away in storage exactly as the fable warns;
* yet even the TTL extent *doubles every period*, because under pure
  doubling the recent window always dominates the total — "you cannot
  find enough rice in the universe" applies to the eaters too;
* EGI with fixed seeds cannot keep pace with exponential ingest: its
  extent ends above the window arms. The fable's actual lesson:
  consumption capacity must scale with ingest, a fixed appetite is
  not enough.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, extent_probe, pick, register, run_arm
from repro.fungi import EGIFungus, LinearDecayFungus, NullFungus, RetentionFungus
from repro.workload.arrival import ChessboardArrivals

CLAIM = (
    "Exponential data growth is futile: without decay the extent explodes; "
    "with a natural law of rotting the extent tracks what you can eat."
)


@register("F1")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the chessboard experiment at the given scale."""
    ticks = pick(scale, 16, 26)
    doubling_period = 2
    cap = pick(scale, 2_000, 10_000)
    retention_age = 6

    arrivals = ChessboardArrivals(initial=4, doubling_period=doubling_period, cap=cap)
    arms = {
        "none": NullFungus(),
        "retention": RetentionFungus(max_age=retention_age),
        "linear": LinearDecayFungus(rate=1.0 / retention_age),
        "egi": EGIFungus(seeds_per_cycle=4, decay_rate=0.34),
    }

    extents: dict[str, list[int]] = {}
    inserted_total = 0
    for name, fungus in arms.items():
        db, stats = run_arm(fungus, arrivals, ticks, probe=extent_probe(), seed=11)
        extents[name] = list(stats.series["extent"])
        inserted_total = stats.inserted
    window_arrivals = sum(
        arrivals.count_at(t) for t in range(max(ticks - retention_age, 0), ticks)
    )

    result = ExperimentResult(
        experiment_id="F1",
        title="Chessboard: exponential ingest under four appetites",
        claim=CLAIM,
        scale=scale,
    )
    result.add_series(
        "live extent per tick", "tick", list(range(ticks)), extents
    )
    result.headers = ("arm", "final extent", "vs hoard")
    hoard_final = extents["none"][-1]
    result.rows = [
        (name, values[-1], f"{values[-1] / hoard_final:.3f}x")
        for name, values in extents.items()
    ]
    result.notes.append(f"total arrivals: {inserted_total} (cap {cap}/tick)")

    # shape checks
    result.check("control hoards everything", extents["none"][-1] == inserted_total)
    result.check(
        "retention keeps only the last-lifetime window (old rice rots)",
        extents["retention"][-1] <= window_arrivals * 1.2,
    )
    result.check(
        "linear decay behaves like a retention window",
        extents["linear"][-1] <= window_arrivals * 1.2,
    )
    # the fable's futility: even the TTL extent doubles per period,
    # because the recent window of an exponential stream dominates it
    quarter = max(ticks // 4, 1)
    result.check(
        "even the TTL extent keeps growing with the doubling ingest",
        max(extents["retention"][-quarter:]) >= 1.5 * max(extents["retention"][:quarter]),
    )
    result.check(
        "fixed-appetite EGI rots something but cannot keep pace",
        extents["retention"][-1] <= extents["egi"][-1] < hoard_final,
    )
    result.check(
        "hoard grows monotonically",
        all(b >= a for a, b in zip(extents["none"], extents["none"][1:])),
    )
    return result
