"""T4 — the health dividend: what regular rotting buys queries.

Paper claim operationalised: "The database is kept in optimal health
condition if you regularly can turn rotting portions into summaries
for later consumption, or inspect them once before removal."

Two databases ingest the identical sensor history:

* **hoard** — NullFungus: every tuple ever inserted is still live;
* **healthy** — EGI + distill-on-evict: a small fresh extent plus
  summaries of everything that rotted.

Then both answer the same query workload. The table reports extent
and rows scanned per query — and, for the healthy arm, how close its
*summary-based* answer to a historical question (count + mean over all
time) comes to the hoard's exact answer. That the healthy arm also
answers faster is ``benchmarks/bench_health.py``'s same-process gate.
"""

from __future__ import annotations

from repro.core.db import FungusDB
from repro.experiments.common import ExperimentResult, pick, register, run_arm
from repro.fungi import EGIFungus
from repro.workload.arrival import ConstantArrivals
from repro.workload.queries import QueryMix, QueryWorkload

CLAIM = (
    "A regularly-rotted table answers the live workload faster and "
    "cheaper, while summaries still answer historical questions approximately."
)


def ingest_arms(ticks: int, rate: int) -> dict[str, FungusDB]:
    """The hoard and the healthy table after one identical sensor history."""
    return {
        name: run_arm(fungus, ConstantArrivals(rate), ticks, seed=12)[0]
        for name, fungus in (
            ("hoard", None),
            ("healthy", EGIFungus(seeds_per_cycle=3, decay_rate=0.3)),
        )
    }


def workload_queries(ticks: int, n_queries: int) -> list[str]:
    """The live query workload both arms answer, over a ``ticks``-long history."""
    workload = QueryWorkload(
        table="readings",
        key_column="sensor",
        key_values=[f"s{i:03d}" for i in range(25)],
        value_column="temp",
        horizon=float(ticks),
        mix=QueryMix(point=0.4, time_range=0.3, aggregate=0.3, consume=0.0),
        seed=12,
    )
    return list(workload.queries(n_queries))


@register("T4")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the health-dividend experiment at the given scale."""
    ticks = pick(scale, 60, 200)
    rate = pick(scale, 10, 25)
    n_queries = pick(scale, 40, 150)

    arms = ingest_arms(ticks, rate)

    headers = ("arm", "extent", "rows scanned/query", "rel. error")
    rows = []
    measured: dict[str, dict[str, float]] = {}
    queries = workload_queries(ticks, n_queries)
    for name, db in arms.items():
        total_scanned = sum(db.query(sql).stats.rows_scanned for sql in queries)
        measured[name] = {
            "extent": db.extent("readings"),
            "scanned": total_scanned / n_queries,
        }
        rows.append(
            (name, measured[name]["extent"], round(measured[name]["scanned"], 1), "")
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
    rows.append(("history count (healthy live+summary)", total_count, "", round(count_err, 4)))
    rows.append(("history mean temp (hoard exact)", round(exact_mean, 3), "", ""))
    rows.append(("history mean temp (healthy)", round(est_mean, 3), "", round(mean_err, 4)))

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
    result.check("historical count is exact via summaries", count_err <= 1e-9)
    result.check("historical mean within 5% via summaries", mean_err <= 0.05)
    return result
