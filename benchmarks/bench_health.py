"""The health dividend's speed, in one process.

T4 (``repro.experiments.t4_health``) shows that a regularly rotted
table scans far fewer rows per query than a hoard of the same history;
this gate times it. Two databases ingest the identical 100k-row sensor
history (1,000 ticks of 100 rows): the hoard under no fungus keeps
every row, the healthy table under EGI with distill-on-evict keeps
about a tenth. Both answer the same 20-query T4 workload three times;
the healthy table's best pass must be no slower than the hoard's.

Same-process ratios only; numbers compared across commits come from
``python -m bench_e2e run``.
"""

from benchmarks.timing import time_callable
from repro.experiments.t4_health import ingest_arms, workload_queries

TICKS = 1_000
RATE = 100
QUERIES = 20


def test_healthy_answers_the_workload_faster(capsys):
    arms = ingest_arms(TICKS, RATE)
    queries = workload_queries(TICKS, QUERIES)
    ms = {}
    for name, db in arms.items():
        seconds = time_callable(lambda db=db: [db.query(sql) for sql in queries], repeats=3)
        ms[name] = seconds["min"] * 1e3 / QUERIES
    with capsys.disabled():
        print(
            f"\nmean query ms: hoard {ms['hoard']:.2f} ({arms['hoard'].extent('readings')} rows), "
            f"healthy {ms['healthy']:.2f} ({arms['healthy'].extent('readings')} rows), "
            f"{ms['hoard'] / ms['healthy']:.1f}x"
        )
    assert ms["healthy"] <= ms["hoard"]
