"""F6 — ablations of this reproduction's own design choices.

DESIGN.md commits to four operational choices the paper leaves open;
this experiment measures each against the default configuration under
the same constant ingest + EGI fungus:

* **eager vs lazy eviction** — lazy leaves exhausted tuples in the
  extent until a batch threshold, overstating R between collections;
* **distill-on-evict on/off** — off means rows leave unsummarised
  (Law 2's spirit violated: data dies unseen);
* **compaction cadence** — without compaction, tombstones accumulate;
* **pinning (immunity)** — pinned rows must survive arbitrary decay.
"""

from __future__ import annotations

from repro.core.db import FungusDB
from repro.core.policy import EvictionMode
from repro.experiments.common import ExperimentResult, pick, register
from repro.fungi import EGIFungus
from repro.workload.arrival import ConstantArrivals
from repro.workload.generators import SensorGenerator
from repro.workload.replay import ReplayDriver, ReplayStats

CLAIM = (
    "Operational choices matter: lazy eviction overstates the extent, "
    "skipping distillation loses data unseen, and pinned rows never rot."
)


def _fungus() -> EGIFungus:
    return EGIFungus(seeds_per_cycle=3, decay_rate=0.3)


def _run(
    ticks: int,
    rate: int,
    eviction: EvictionMode,
    distill: bool,
    compact_every: int,
    pin_first: int = 0,
    seed: int = 13,
) -> tuple[FungusDB, ReplayStats]:
    db = FungusDB(seed=seed)
    generator = SensorGenerator(num_sensors=25, seed=seed)
    db.create_table(
        "readings",
        generator.schema,
        fungus=_fungus(),
        eviction=eviction,
        lazy_batch=256,
        distill_on_evict=distill,
        compact_every=compact_every,
    )
    if pin_first:
        rows = [generator.generate(0) for _ in range(pin_first)]
        rids = db.insert_many("readings", rows)
        table = db.table("readings")
        for rid in rids:
            table.pin(rid)
    driver = ReplayDriver(db, "readings", ConstantArrivals(rate), generator)

    def probe(tick: int, db: FungusDB, stats: ReplayStats) -> None:
        stats.record("extent", db.extent("readings"))
        stats.record("tombstones", db.table("readings").storage.tombstones)

    driver.probe_each_tick(probe)
    stats = driver.run(ticks)
    return db, stats


@register("F6")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the ablation experiment at the given scale."""
    ticks = pick(scale, 60, 200)
    rate = pick(scale, 10, 20)
    pin_count = pick(scale, 20, 100)

    arms = {
        "default (eager+distill)": dict(
            eviction=EvictionMode.EAGER, distill=True, compact_every=0
        ),
        "lazy eviction": dict(
            eviction=EvictionMode.LAZY, distill=True, compact_every=0
        ),
        "no distillation": dict(
            eviction=EvictionMode.EAGER, distill=False, compact_every=0
        ),
        "compact every 20": dict(
            eviction=EvictionMode.EAGER, distill=True, compact_every=20
        ),
        "pinned rows": dict(
            eviction=EvictionMode.EAGER, distill=True, compact_every=0, pin_first=pin_count
        ),
    }

    headers = (
        "arm",
        "mean extent",
        "final tombstones",
        "evicted",
        "distilled",
        "pinned alive",
    )
    rows = []
    extents_series: dict[str, list[int]] = {}
    dbs: dict[str, FungusDB] = {}
    for name, kwargs in arms.items():
        db, stats = _run(ticks, rate, **kwargs)
        dbs[name] = db
        extents = stats.series["extent"]
        extents_series[name] = extents
        policy = db.policies["readings"]
        table = db.table("readings")
        rows.append(
            (
                name,
                round(sum(extents) / len(extents), 1),
                table.storage.tombstones,
                policy.stats.tuples_evicted,
                policy.stats.tuples_distilled,
                len(table.pinned),
            )
        )

    stride = max(1, ticks // 30)
    sampled = list(range(0, ticks, stride))
    result = ExperimentResult(
        experiment_id="F6",
        title="Ablations: eviction mode, distillation, compaction, pinning",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )
    result.add_series(
        "extent per tick",
        "tick",
        sampled,
        {name: [values[i] for i in sampled] for name, values in extents_series.items()},
    )

    default_mean = sum(extents_series["default (eager+distill)"]) / ticks
    lazy_mean = sum(extents_series["lazy eviction"]) / ticks
    result.check("lazy eviction overstates the extent", lazy_mean > default_mean)

    default_policy = dbs["default (eager+distill)"].policies["readings"]
    result.check(
        "with distillation, nothing dies unseen (distilled == evicted)",
        default_policy.stats.tuples_distilled == default_policy.stats.tuples_evicted,
    )
    nodistill_policy = dbs["no distillation"].policies["readings"]
    result.check(
        "without distillation, evicted rows are lost unseen",
        nodistill_policy.stats.tuples_distilled == 0
        and nodistill_policy.stats.tuples_evicted > 0,
    )
    result.check(
        "compaction keeps tombstones bounded",
        dbs["compact every 20"].table("readings").storage.tombstones
        < dbs["default (eager+distill)"].table("readings").storage.tombstones
        or dbs["compact every 20"].table("readings").storage.tombstones == 0,
    )
    pinned_table = dbs["pinned rows"].table("readings")
    result.check(
        "every pinned row survived the whole run",
        len(pinned_table.pinned) == pin_count,
    )
    return result
