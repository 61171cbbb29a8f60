"""T4 — the health dividend: what regular rotting buys queries.

Paper claim operationalised: "The database is kept in optimal health
condition if you regularly can turn rotting portions into summaries
for later consumption, or inspect them once before removal."

Two databases ingest the identical sensor history:

* **hoard** — NullFungus: every tuple ever inserted is still live;
* **healthy** — EGI + distill-on-evict: a small fresh extent plus
  summaries of everything that rotted.

Then both answer the same query workload. The table reports extent,
mean query latency, rows scanned per query — and, for the healthy arm,
how close its *summary-based* answer to a historical question
(count + mean over all time) comes to the hoard's exact answer.
"""

from __future__ import annotations

from repro.bench.measure import Timer
from repro.bench.runner import ExperimentResult, register
from repro.core.db import FungusDB
from repro.experiments.common import pick
from repro.fungi import EGIFungus
from repro.workload.arrival import ConstantArrivals
from repro.workload.generators import SensorGenerator
from repro.workload.queries import QueryMix, QueryWorkload
from repro.workload.replay import ReplayDriver

CLAIM = (
    "A regularly-rotted table answers the live workload faster and "
    "cheaper, while summaries still answer historical questions approximately."
)


def _ingest(fungus, ticks: int, rate: int, seed: int = 12) -> FungusDB:
    db = FungusDB(seed=seed)
    generator = SensorGenerator(num_sensors=25, seed=seed)
    db.create_table("readings", generator.schema, fungus=fungus, distill_on_evict=True)
    ReplayDriver(db, "readings", ConstantArrivals(rate), generator).run(ticks)
    return db


@register("T4")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the health-dividend experiment at the given scale."""
    ticks = pick(scale, 60, 200)
    rate = pick(scale, 10, 25)
    n_queries = pick(scale, 40, 150)

    arms = {
        "hoard": _ingest(None, ticks, rate),
        "healthy": _ingest(EGIFungus(seeds_per_cycle=3, decay_rate=0.3), ticks, rate),
    }

    headers = ("arm", "extent", "mean query ms", "rows scanned/query")
    rows = []
    measured: dict[str, dict[str, float]] = {}
    for name, db in arms.items():
        workload = QueryWorkload(
            table="readings",
            key_column="sensor",
            key_values=[f"s{i:03d}" for i in range(25)],
            value_column="temp",
            horizon=float(ticks),
            mix=QueryMix(point=0.4, time_range=0.3, aggregate=0.3, consume=0.0),
            seed=12,
        )
        total_ms = 0.0
        total_scanned = 0
        for sql in workload.queries(n_queries):
            with Timer() as t:
                res = db.query(sql)
            total_ms += t.elapsed * 1000.0
            total_scanned += res.stats.rows_scanned
        measured[name] = {
            "extent": db.extent("readings"),
            "ms": total_ms / n_queries,
            "scanned": total_scanned / n_queries,
        }
        rows.append(
            (
                name,
                measured[name]["extent"],
                round(measured[name]["ms"], 3),
                round(measured[name]["scanned"], 1),
            )
        )

    # historical question: how many readings ever, and mean temperature?
    hoard = arms["hoard"]
    healthy = arms["healthy"]
    exact_count = hoard.query("SELECT count(*) FROM readings").scalar()
    exact_mean = hoard.query("SELECT avg(temp) FROM readings").scalar()

    merged = healthy.merged_summary("readings")
    live_count = healthy.query("SELECT count(*) FROM readings").scalar()
    live_sum_res = healthy.query("SELECT sum(temp) FROM readings").scalar() or 0.0
    summary_count = merged.row_count if merged else 0
    summary_moments = merged.column("temp").moments if merged else None
    total_count = live_count + summary_count
    total_sum = live_sum_res + (summary_moments.total if summary_moments else 0.0)
    est_mean = total_sum / total_count if total_count else 0.0

    count_err = abs(total_count - exact_count) / exact_count
    mean_err = abs(est_mean - exact_mean) / abs(exact_mean)
    rows.append(("history count (hoard exact)", exact_count, "", ""))
    rows.append(("history count (healthy live+summary)", total_count, round(count_err, 4), ""))
    rows.append(("history mean temp (hoard exact)", round(exact_mean, 3), "", ""))
    rows.append(("history mean temp (healthy)", round(est_mean, 3), round(mean_err, 4), ""))

    result = ExperimentResult(
        experiment_id="T4",
        title="Health dividend: rotted+distilled vs hoarded table",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )

    result.check(
        "healthy extent is a small fraction of the hoard",
        measured["healthy"]["extent"] * 3 <= measured["hoard"]["extent"],
    )
    result.check(
        "healthy scans far fewer rows per query",
        measured["healthy"]["scanned"] * 2 <= measured["hoard"]["scanned"],
    )
    result.check(
        "healthy answers the workload faster",
        measured["healthy"]["ms"] <= measured["hoard"]["ms"],
        wall_clock=True,
    )
    result.check("historical count is exact via summaries", count_err <= 1e-9)
    result.check("historical mean within 5% via summaries", mean_err <= 0.05)
    return result


def main() -> None:
    """Print the paper-scale report."""
    from repro.bench.reporting import render_result

    print(render_result(run("paper")))


if __name__ == "__main__":
    main()
