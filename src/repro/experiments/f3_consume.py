"""F3 — Law 2: the query-consume law.

Paper claims operationalised:

* "The extent of table R is replaced by each query Q into the union of
  the answer set of Q and the reduced extent of R" — after each
  consuming query, extent(R) drops by exactly the answer-set size.
* "All tuples in R satisfying P are discarded immediately." —
  conservation: consumed + remaining = initial, always.

Protocol: fill R with N sensor rows; for each predicate selectivity
``s`` run a stream of consuming queries whose WHERE clause is a random
value window of fractional width ``s``; track the extent after each
query. The decay fungus is off (NullFungus) so the figure isolates
Law 2.
"""

from __future__ import annotations

import random

from repro.core.db import FungusDB
from repro.experiments.common import ExperimentResult, pick, register
from repro.workload.generators import SensorGenerator

CLAIM = (
    "Each query replaces R by R − σ_P(R): the extent decays "
    "geometrically with query count, faster for more selective appetites."
)

TEMP_LOW, TEMP_HIGH = -20.0, 60.0


@register("F3")
def run(scale: str = "smoke") -> ExperimentResult:
    """Run the consume experiment at the given scale."""
    n_rows = pick(scale, 1_500, 6_000)
    n_queries = pick(scale, 30, 60)
    selectivities = (0.05, 0.15, 0.30)

    result = ExperimentResult(
        experiment_id="F3",
        title="Law 2: extent of R vs number of consuming queries",
        claim=CLAIM,
        scale=scale,
    )

    series: dict[str, list[int]] = {}
    conservation_ok = True
    monotone_ok = True
    answer_matches_delta = True

    for s in selectivities:
        db = FungusDB(seed=5)
        generator = SensorGenerator(num_sensors=25, seed=5)
        db.create_table("readings", generator.schema, fungus=None)
        db.insert_many("readings", [generator.generate(0) for _ in range(n_rows)])
        rng = random.Random(int(s * 1000))

        extents = [db.extent("readings")]
        consumed_total = 0
        for _ in range(n_queries):
            span = (TEMP_HIGH - TEMP_LOW) * s
            lo = rng.uniform(TEMP_LOW, TEMP_HIGH - span)
            before = db.extent("readings")
            res = db.query(
                f"CONSUME SELECT sensor, temp FROM readings "
                f"WHERE temp BETWEEN {lo:.4f} AND {lo + span:.4f}"
            )
            after = db.extent("readings")
            consumed_total += len(res.consumed)
            if after != before - len(res.rows):
                answer_matches_delta = False
            if after > before:
                monotone_ok = False
            extents.append(after)
        if consumed_total + db.extent("readings") != n_rows:
            conservation_ok = False
        series[f"s={s}"] = extents

    result.add_series(
        "extent of R vs consuming queries",
        "query#",
        list(range(n_queries + 1)),
        series,
    )

    # geometric-shape check: halve-life of extent shrinks with selectivity
    def queries_to_half(extents: list[int]) -> int:
        target = extents[0] / 2
        for i, e in enumerate(extents):
            if e <= target:
                return i
        return len(extents)

    halves = {s: queries_to_half(series[f"s={s}"]) for s in selectivities}
    result.headers = ("selectivity", "final extent", "queries to half extent")
    result.rows = [
        (s, series[f"s={s}"][-1], halves[s] if halves[s] <= n_queries else ">budget")
        for s in selectivities
    ]

    result.check("conservation: consumed + remaining = initial", conservation_ok)
    result.check("extent never grows under queries", monotone_ok)
    result.check("answer set size equals extent reduction", answer_matches_delta)
    result.check(
        "more selective appetites halve the extent sooner",
        halves[0.30] <= halves[0.15] <= halves[0.05],
    )
    return result
