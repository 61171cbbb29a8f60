"""T5 — the summary container itself must not become the new hoard.

Paper claim operationalised: distilled knowledge should be "stored in
a new container subject to different data fungi". If summaries
accumulate forever, the data deluge has just moved one shelf down.
This experiment compares, under identical EGI ingest:

* **unbounded store** — every eviction batch keeps its own summary;
* **vault** — summaries decay (half-life) and compost into one coarse
  archive per table.

Reported: summary-container memory (sketch cells) over time, the
number of retained summary objects, and the fidelity of all-time
answers (count conservation is exact in both; mean error vs the true
ingested stream is measured for the vault, whose compost merged many
summaries).
"""

from __future__ import annotations

from repro.core.db import FungusDB
from repro.core.vault import SummaryVault
from repro.experiments.common import ExperimentResult, pick, register
from repro.fungi import EGIFungus
from repro.workload.generators import SensorGenerator

CLAIM = (
    "A decaying summary vault bounds summary memory while preserving "
    "all-time counts exactly and aggregates approximately."
)


def _run_arm(use_vault: bool, ticks: int, rate: int, seed: int = 15):
    store = SummaryVault(half_life=20.0, compost_below=0.3) if use_vault else None
    db = FungusDB(seed=seed, store=store)
    generator = SensorGenerator(num_sensors=25, seed=seed)
    db.create_table(
        "readings", generator.schema, fungus=EGIFungus(seeds_per_cycle=3, decay_rate=0.3)
    )
    cells: list[int] = []
    counts: list[int] = []
    temp_sum = 0.0
    for tick in range(ticks):
        rows = [generator.generate(tick) for _ in range(rate)]
        temp_sum += sum(r["temp"] for r in rows)
        db.insert_many("readings", rows)
        db.tick(1)
        cells.append(db.store.memory_cells())
        counts.append(len(db.store.for_table("readings")))
    return db, cells, counts, temp_sum


@register("T5")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the vault ablation at the given scale."""
    ticks = pick(scale, 80, 300)
    rate = pick(scale, 10, 15)

    unbounded_db, unbounded_cells, unbounded_counts, temp_sum = _run_arm(
        False, ticks, rate
    )
    vault_db, vault_cells, vault_counts, _ = _run_arm(True, ticks, rate)
    vault: SummaryVault = vault_db.store  # type: ignore[assignment]

    total = ticks * rate
    true_mean = temp_sum / total

    def all_time_mean(db: FungusDB) -> float:
        merged = db.merged_summary("readings")
        table = db.table("readings")
        live_sum = sum(
            table.attributes_of(rid)["temp"] for rid in table.live_rows()
        )
        live_count = db.extent("readings")
        summary_moments = merged.column("temp").moments if merged else None
        summary_sum = summary_moments.total if summary_moments else 0.0
        summary_count = merged.row_count if merged else 0
        return (live_sum + summary_sum) / max(live_count + summary_count, 1)

    unbounded_conserved = (
        unbounded_db.extent("readings")
        + (unbounded_db.merged_summary("readings").row_count if unbounded_db.merged_summary("readings") else 0)
        == total
    )
    vault_merged = vault_db.merged_summary("readings")
    vault_conserved = (
        vault_db.extent("readings") + (vault_merged.row_count if vault_merged else 0)
        == total
    )

    unbounded_mean_err = abs(all_time_mean(unbounded_db) - true_mean) / abs(true_mean)
    vault_mean_err = abs(all_time_mean(vault_db) - true_mean) / abs(true_mean)

    headers = (
        "container",
        "summary objects at end",
        "sketch cells at end",
        "count conserved",
        "all-time mean rel err",
    )
    rows = [
        (
            "unbounded store",
            unbounded_counts[-1],
            unbounded_cells[-1],
            unbounded_conserved,
            round(unbounded_mean_err, 5),
        ),
        (
            "vault (half-life 20)",
            vault_counts[-1],
            vault_cells[-1],
            vault_conserved,
            round(vault_mean_err, 5),
        ),
    ]

    result = ExperimentResult(
        experiment_id="T5",
        title="Summary container ablation: unbounded store vs decaying vault",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )
    stride = max(1, ticks // 30)
    sampled = list(range(0, ticks, stride))
    result.add_series(
        "summary objects held",
        "tick",
        sampled,
        {
            "unbounded": [unbounded_counts[i] for i in sampled],
            "vault": [vault_counts[i] for i in sampled],
        },
    )
    result.notes.append(
        f"vault composted {vault.composted_summaries} summaries into its archive"
    )

    result.check("both containers conserve counts", unbounded_conserved and vault_conserved)
    result.check(
        "unbounded store grows without bound (objects ~ ticks)",
        unbounded_counts[-1] >= ticks * 0.5,
    )
    # a vault entry composts once its freshness crosses the threshold,
    # i.e. after ceil(log(compost_below) / log(2^(-1/half_life))) ticks;
    # the steady-state fresh population can never exceed that delay
    import math

    compost_delay = math.ceil(math.log(vault.compost_below) / math.log(vault._decay_factor))
    result.check(
        "vault objects bounded by the composting delay, not by run length",
        vault_counts[-1] <= compost_delay + 2,
    )
    result.check(
        "vault holds at most half the unbounded store's objects",
        vault_counts[-1] * 2 <= unbounded_counts[-1],
    )
    result.check(
        "vault memory plateaus (last quarter grows < 20%)",
        vault_cells[-1] <= vault_cells[-(max(ticks // 4, 1))] * 1.2,
    )
    result.check(
        "all-time mean within 2% through the compost",
        vault_mean_err <= 0.02,
    )
    return result
