"""Columnar distillation against the per-row loop, in one process.

Folds the same rows of bench_e2e's 5-column ``readings`` schema into a
:class:`~repro.sketch.summary.TableSummary` both ways and asserts the
two ratios batch distillation exists for: ``add_columns`` >= 4.5x a
loop of ``add_row`` at 550 rows (one ``ingest_decay`` eviction batch),
and no slower than 1.25x the loop at 4 rows, where the small-batch
cut-over keeps the fixed numpy cost off the path. One level down, at
550 values: ``add_all`` of each order-dependent sketch against its
``add`` loop (histogram >= 1.45x, moments >= 2x, reservoir >= 1.7x),
and ``stable_hashes`` of a column with 12 distinct values >= 1.2x
faster than of one with 550 (it hashes each distinct value once).
Same-process ratios only; numbers compared across commits come from
``python -m bench_e2e run``.
"""

import random

import pytest

from benchmarks.timing import time_callable
from repro.sketch import ReservoirSample, RunningMoments, StreamingHistogram
from repro.sketch.countmin import stable_hashes
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


def _ratio(slow, fast) -> tuple[float, float, float]:
    """(slow s, fast s, slow / fast), min of 7 each after one warm-up."""
    slow(), fast()
    slow_s = time_callable(slow, repeats=7)["min"]
    fast_s = time_callable(fast, repeats=7)["min"]
    return slow_s, fast_s, slow_s / fast_s


@pytest.mark.parametrize(
    "count, floor, ceiling", [(550, 4.5, None), (4, None, 1.25)], ids=["550", "4"]
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

    loop_s, batch_s, ratio = _ratio(looped, batched)
    with capsys.disabled():
        print(
            f"\nsummary of {count} rows x 5 columns: add_row loop {loop_s * 1e3:.3f} ms, "
            f"add_columns {batch_s * 1e3:.3f} ms, {ratio:.2f}x"
        )
    assert floor is None or ratio >= floor
    assert ceiling is None or batch_s <= ceiling * loop_s


@pytest.mark.parametrize(
    "make, floor",
    [
        (lambda: StreamingHistogram(64), 1.45),
        (RunningMoments, 2.0),
        (lambda: ReservoirSample(50, seed=1), 1.7),
    ],
    ids=["histogram", "moments", "reservoir"],
)
def test_add_all_against_add_loop(make, floor, capsys):
    values = [row["temp"] for row in _rows(550)]

    def looped() -> None:
        sketch = make()
        for value in values:
            sketch.add(value)

    loop_s, batch_s, ratio = _ratio(looped, lambda: make().add_all(values))
    with capsys.disabled():
        print(
            f"\n{type(make()).__name__} of 550 values: add loop {loop_s * 1e3:.3f} ms, "
            f"add_all {batch_s * 1e3:.3f} ms, {ratio:.2f}x"
        )
    assert ratio >= floor


def test_stable_hashes_of_few_distinct_values(capsys):
    few = [row["site"] for row in _rows(550)]
    many = [f"site-{i}" for i in range(550)]
    assert len(set(few)) <= 12
    many_s, few_s, ratio = _ratio(lambda: stable_hashes(many), lambda: stable_hashes(few))
    with capsys.disabled():
        print(
            f"\nstable_hashes of 550 values: 550 distinct {many_s * 1e3:.3f} ms, "
            f"{len(set(few))} distinct {few_s * 1e3:.3f} ms, {ratio:.2f}x"
        )
    assert ratio >= 1.2
