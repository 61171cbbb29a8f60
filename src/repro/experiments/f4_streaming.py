"""F4 — fungus database vs streaming-window baseline.

Paper claim operationalised: the proposed steps "are nowadays part of
data science pipelines, and even fundamental to streaming database
systems, or Complex Event Processing systems". So: what does the
fungus model buy over a streaming database's cliff retention?

Both arms are FungusDB tables ingesting the same sensor stream:

* **window baseline** — the paper's "old-fashioned decay function":
  :class:`~repro.fungi.retention.RetentionFungus` expires each tuple
  W ticks after insertion, with no distillation. Perfect recall inside
  the window, amnesia outside it — a streaming database's retention.
  It runs on its own database, so the fungus arm's schedule is the one
  it would have alone.
* **fungus** — EGI + distill-on-evict; the live extent is bounded like
  the window, but everything that ever left the table survives as
  summaries.

Series per tick: memory (live tuples) and *knowledge coverage* of the
full history — the fraction of [0, now] an arm can say anything about,
exact or summarised, measured from its oldest live tuple and, for the
fungus, its oldest summary.
"""

from __future__ import annotations

from repro.core.db import FungusDB
from repro.experiments.common import ExperimentResult, pick, register
from repro.fungi import EGIFungus, RetentionFungus
from repro.workload.generators import SensorGenerator

CLAIM = (
    "A window baseline and a fungus table both bound memory, but the "
    "fungus retains degraded knowledge of the entire history via summaries."
)


def _oldest_live_t(db: FungusDB) -> float:
    """Insertion time of the oldest live reading (``now`` when empty)."""
    table = db.table("readings")
    oldest = table.oldest_live()
    return table.inserted_at(oldest) if oldest is not None else db.now


@register("F4")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the streaming comparison at the given scale."""
    ticks = pick(scale, 80, 250)
    rate = pick(scale, 10, 20)
    window = 30.0

    generator = SensorGenerator(num_sensors=25, seed=8)
    db = FungusDB(seed=8)
    db.create_table(
        "readings",
        generator.schema,
        fungus=EGIFungus(seeds_per_cycle=3, decay_rate=0.3),
        distill_on_evict=True,
    )
    window_db = FungusDB(seed=8)
    window_db.create_table(
        "readings",
        generator.schema,
        fungus=RetentionFungus(window),
        distill_on_evict=False,
    )

    x: list[int] = []
    mem_fungus: list[int] = []
    mem_baseline: list[int] = []
    coverage_fungus: list[float] = []
    coverage_baseline: list[float] = []

    for tick in range(ticks):
        rows = [generator.generate(tick) for _ in range(rate)]
        for arm in (db, window_db):
            arm.insert_many("readings", rows)
            arm.tick(1)

        oldest_f = _oldest_live_t(db)
        x.append(tick)
        mem_fungus.append(db.extent("readings"))
        mem_baseline.append(window_db.extent("readings"))
        # knowledge coverage of [0, now]: live span plus summarised span
        summarised_from = min(
            (s.time_range[0] for s in db.summaries("readings") if s.time_range),
            default=oldest_f,
        )
        known_from = min(oldest_f, summarised_from)
        coverage_fungus.append(1.0 - known_from / max(db.now, 1.0))
        coverage_baseline.append(1.0 - _oldest_live_t(window_db) / max(window_db.now, 1.0))

    stride = max(1, ticks // 40)
    sampled = list(range(0, ticks, stride))
    result = ExperimentResult(
        experiment_id="F4",
        title="Fungus table vs streaming window: memory and knowledge",
        claim=CLAIM,
        scale=scale,
    )
    result.add_series(
        "memory (tuples held)",
        "tick",
        [x[i] for i in sampled],
        {
            "fungus": [mem_fungus[i] for i in sampled],
            "window-baseline": [mem_baseline[i] for i in sampled],
        },
    )
    result.add_series(
        "history coverage (fraction of [0, now] answerable)",
        "tick",
        [x[i] for i in sampled],
        {
            "fungus(live+summaries)": [round(coverage_fungus[i], 3) for i in sampled],
            "window-baseline": [round(coverage_baseline[i], 3) for i in sampled],
        },
    )

    summaries = db.summaries("readings")
    result.notes.append(
        f"fungus distilled {sum(s.row_count for s in summaries)} rows "
        f"into {len(summaries)} summaries"
    )

    # shape checks
    steady = ticks // 2
    baseline_cap = window * rate * 1.05
    result.check(
        "baseline memory plateaus at window x rate",
        all(m <= baseline_cap for m in mem_baseline[steady:]),
    )
    result.check(
        "fungus memory is bounded (below 2x the baseline plateau)",
        max(mem_fungus[steady:]) <= 2.0 * baseline_cap,
    )
    result.check(
        "baseline forgets everything outside the window",
        coverage_baseline[-1] <= (window / ticks) * 1.2,
    )
    result.check(
        "fungus (with summaries) still covers essentially all history",
        coverage_fungus[-1] >= 0.95,
    )
    total_ingested = ticks * rate
    total_summarised = sum(s.row_count for s in summaries)
    result.check(
        "nothing dies unseen: ingested = live + summarised",
        total_ingested == db.extent("readings") + total_summarised,
    )
    return result
