"""Columnar distillation against the per-row loop, in one process.

Folds the same rows of bench_e2e's 5-column ``readings`` schema into a
:class:`~repro.sketch.summary.TableSummary` both ways and asserts the
two ratios batch distillation exists for: ``add_columns`` >= 2x a loop
of ``add_row`` at 550 rows (one ``ingest_decay`` eviction batch), and
no slower than 1.25x the loop at 4 rows, where the small-batch cut-over
keeps the fixed numpy cost off the path. Same-process ratios only;
numbers compared across commits come from ``python -m bench_e2e run``.
"""

import random

import pytest

from repro.bench.measure import time_callable
from repro.sketch.summary import TableSummary
from repro.storage import Schema

SCHEMA = Schema.of(t="timestamp", f="float", sensor="int", temp="float", site="str")


def _rows(count: int) -> list[dict]:
    rng = random.Random(0)
    return [
        {
            "t": float(i // 100),
            "f": 0.0,
            "sensor": rng.randrange(400),
            "temp": rng.gauss(22.0, 4.0),
            "site": f"site-{rng.randrange(12)}",
        }
        for i in range(count)
    ]


@pytest.mark.parametrize(
    "count, floor, ceiling", [(550, 2.0, None), (4, None, 1.25)], ids=["550", "4"]
)
def test_add_columns_against_add_row_loop(count, floor, ceiling, capsys):
    rows = _rows(count)
    columns = {name: [row[name] for row in rows] for name in SCHEMA.names}

    def looped() -> None:
        summary = TableSummary("readings", SCHEMA, time_column="t")
        for row in rows:
            summary.add_row(row)

    def batched() -> None:
        TableSummary("readings", SCHEMA, time_column="t").add_columns(columns)

    looped(), batched()  # warm-up
    loop_s = time_callable(looped, repeats=7)["min"]
    batch_s = time_callable(batched, repeats=7)["min"]
    with capsys.disabled():
        print(
            f"\nsummary of {count} rows x 5 columns: add_row loop {loop_s * 1e3:.3f} ms, "
            f"add_columns {batch_s * 1e3:.3f} ms, {loop_s / batch_s:.2f}x"
        )
    assert floor is None or loop_s >= floor * batch_s
    assert ceiling is None or batch_s <= ceiling * loop_s
