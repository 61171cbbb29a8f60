"""T2 — cooking fidelity: what a summary preserves of rotten data.

Paper claim operationalised: "you should distill it into useful
knowledge, summary, consumed by the user, or stored in a new container
subject to different data fungi" — and the implicit bargain that the
summary is much smaller than the data while staying useful.

Protocol: distill a web-log table into a
:class:`~repro.sketch.summary.TableSummary`, then compare summary
answers against exact answers over the raw rows:

* row count (exact by construction),
* distinct URLs (HyperLogLog),
* frequency of the 5 hottest URLs (count-min),
* p50/p95 latency (streaming histogram),
* membership of known URLs (Bloom: zero false negatives).

Space is counted in sketch cells vs raw cells (rows × columns).
"""

from __future__ import annotations

from collections import Counter

from repro.core.db import FungusDB
from repro.experiments.common import ExperimentResult, pick, register
from repro.sketch.summary import SummaryConfig
from repro.workload.generators import WebLogGenerator

CLAIM = (
    "Distilled summaries answer count/distinct/frequency/quantile/"
    "membership questions within sketch error at a fraction of the space."
)


@register("T2")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the cooking-fidelity experiment at the given scale."""
    n_rows = pick(scale, 5_000, 20_000)

    # size the sketches for this workload (~200 distinct urls); the
    # defaults are tuned for bigger domains and would waste space here
    config = SummaryConfig(
        histogram_bins=32,
        countmin_width=128,
        countmin_depth=4,
        hll_precision=10,
        bloom_bits=4_096,
        bloom_hashes=5,
        reservoir_size=25,
    )
    db = FungusDB(seed=6, summary_config=config)
    generator = WebLogGenerator(num_urls=200, num_users=500, seed=6)
    db.create_table("logs", generator.schema, fungus=None)

    raw_rows = [generator.generate(0) for _ in range(n_rows)]
    db.insert_many("logs", raw_rows)

    # ground truth over the raw rows
    urls = [r["url"] for r in raw_rows]
    latencies = sorted(r["latency_ms"] for r in raw_rows)
    url_counts = Counter(urls)
    top5 = url_counts.most_common(5)
    true_distinct = len(url_counts)
    true_p50 = latencies[len(latencies) // 2]
    true_p95 = latencies[int(len(latencies) * 0.95)]

    # cook the whole table (as if it were one big rot spot)
    table = db.table("logs")
    summary = db.distiller.distill_rowset(table, table.rowset(), reason="experiment")

    url_summary = summary.column("url")
    latency_summary = summary.column("latency_ms")

    est_distinct = url_summary.estimate_distinct()
    est_p50 = latency_summary.estimate_quantile(0.5)
    est_p95 = latency_summary.estimate_quantile(0.95)

    def rel_err(true: float, est: float) -> float:
        return abs(est - true) / abs(true) if true else 0.0

    headers = ("metric", "true", "summary estimate", "rel. error")
    rows: list[tuple] = [
        ("row count", n_rows, summary.row_count, rel_err(n_rows, summary.row_count)),
        ("distinct urls", true_distinct, round(est_distinct, 1), round(rel_err(true_distinct, est_distinct), 4)),
        ("p50 latency", round(true_p50, 2), round(est_p50, 2), round(rel_err(true_p50, est_p50), 4)),
        ("p95 latency", round(true_p95, 2), round(est_p95, 2), round(rel_err(true_p95, est_p95), 4)),
    ]

    freq_errors = []
    for url, true_count in top5:
        est = url_summary.estimate_frequency(url)
        freq_errors.append(est - true_count)  # count-min only overestimates
        rows.append(
            (f"freq {url}", true_count, est, round(rel_err(true_count, est), 4))
        )

    # membership: every seen URL must be found; unseen URLs measure FP
    false_negatives = sum(1 for url in url_counts if not url_summary.maybe_contains(url))
    unseen = [f"/nopage/{i}" for i in range(2_000)]
    false_positives = sum(1 for u in unseen if url_summary.maybe_contains(u))
    rows.append(("bloom false negatives", 0, false_negatives, 0.0))
    rows.append(
        ("bloom false positives /2k", "~1%", false_positives, round(false_positives / 2000, 4))
    )

    raw_cells = n_rows * len(table.storage.schema)
    summary_cells = summary.memory_cells()
    space_ratio = raw_cells / summary_cells
    rows.append(("space: raw cells", raw_cells, "", ""))
    rows.append(("space: summary cells", summary_cells, f"{space_ratio:.1f}x smaller", ""))

    result = ExperimentResult(
        experiment_id="T2",
        title="Cooking fidelity: summary answers vs exact answers",
        claim=CLAIM,
        scale=scale,
        headers=headers,
        rows=rows,
    )

    cm_bound = url_summary.frequencies.error_bound()
    result.notes.append(f"count-min additive bound eps*N = {cm_bound:.1f}")

    result.check("count exact", summary.row_count == n_rows)
    # HLL at precision 10 has ~3.3% standard error; 8% is the 3-sigma gate
    result.check("distinct within 8%", rel_err(true_distinct, est_distinct) <= 0.08)
    result.check("p50 within 10%", rel_err(true_p50, est_p50) <= 0.10)
    result.check("p95 within 10%", rel_err(true_p95, est_p95) <= 0.10)
    result.check(
        "count-min never underestimates and stays within its bound",
        all(0 <= e <= cm_bound for e in freq_errors),
    )
    result.check("bloom has no false negatives", false_negatives == 0)
    # fixed-size sketches amortise with data volume: already >2x at
    # smoke scale, >5x at paper scale (and growing with n_rows)
    result.check(
        "summary is a fraction of the raw data",
        space_ratio >= pick(scale, 2.0, 5.0),
    )
    return result
