"""The observers on the arrays against their per-row forms, in one process.

Three ratios, each at the size where the observer used to dominate a
``consume_cook`` tick or statement: the collector's batch fold >= 10x a
loop over ``TupleDecayedBatch.expand()`` at 25k rows, array band
sampling >= 10x a ``band_of`` loop at 25k rows, and array column
statistics >= 10x the list path at 100k rows. The 8-row cost of each is
printed, not gated: these run once per tick or once per statement, so
there is no small-batch cut-over to defend. Same-process ratios only;
numbers compared across commits come from ``python -m bench_e2e run``.
"""

import random

import pytest

from repro.bench.measure import time_callable
from repro.core.db import FungusDB
from repro.core.events import TupleDecayedBatch
from repro.core.freshness import FreshnessBand, band_of
from repro.obs.collector import BusCollector
from repro.storage import Schema
from repro.storage.stats import DEFAULT_HISTOGRAM_BINS, planner_stats


class ExpandingCollector(BusCollector):
    """The per-row fold: one ``TupleDecayed`` and four lookups per row."""

    def _on_decayed_batch(self, event):
        for sub in event.expand():
            self._on_decayed(sub)


def _report(capsys, what, count, slow_s, fast_s):
    with capsys.disabled():
        print(
            f"\n{what}, {count} rows: per-row {slow_s * 1e3:.3f} ms, "
            f"arrays {fast_s * 1e3:.3f} ms, {slow_s / fast_s:.1f}x"
        )


def _decaying_db(count: int) -> FungusDB:
    db = FungusDB(seed=0)
    table = db.create_table("events", Schema.of(sensor="int", temp="float"))
    rng = random.Random(0)
    db.insert_many(
        "events",
        [{"sensor": rng.randrange(400), "temp": rng.gauss(22.0, 4.0)} for _ in range(count)],
    )
    # freshness spread over all three bands, a tenth of the rows gone
    table.set_freshness_many(range(count), [rng.random() for _ in range(count)])
    db.query("CONSUME SELECT sensor FROM events WHERE sensor < 40")
    return db


SIZES = pytest.mark.parametrize(
    "count, floor", [(25_000, 10.0), (8, None)], ids=["25k", "8"]
)


@SIZES
def test_batch_fold_against_expand_loop(count, floor, capsys):
    rng = random.Random(1)
    old = tuple(rng.random() for _ in range(count))
    new = tuple(max(o - 0.01, 0.0) for o in old)
    event = TupleDecayedBatch("events", 1.0, tuple(range(count)), old, new, "linear")
    folded, expanded = BusCollector(), ExpandingCollector()
    slow = time_callable(lambda: expanded._on_decayed_batch(event), repeats=7)["min"]
    fast = time_callable(lambda: folded._on_decayed_batch(event), repeats=7)["min"]
    _report(capsys, "decay batch fold", count, slow, fast)
    assert floor is None or slow >= floor * fast


@SIZES
def test_band_sampling_against_band_of_loop(count, floor, capsys):
    db = _decaying_db(count)
    table = db.tables["events"]
    collector = BusCollector().attach(db)

    def looped() -> None:
        bands = {band: 0 for band in FreshnessBand}
        for f in table.freshness_values():
            bands[band_of(f)] += 1

    slow = time_callable(looped, repeats=7)["min"]
    fast = time_callable(lambda: collector.sample_table("events"), repeats=7)["min"]
    _report(capsys, "band sampling", count, slow, fast)
    assert floor is None or slow >= floor * fast


def _list_column_stats(table, name, bins=DEFAULT_HISTOGRAM_BINS):
    """The per-value statistics pass: a list of cells, a Python loop to bin."""
    values = table.column_values(name)
    non_null = [v for v in values if v is not None]
    low, high = min(non_null), max(non_null)
    width = (high - low) / bins
    counts = [0] * bins
    for v in non_null:
        counts[min(int((v - low) / width), bins - 1)] += 1
    return len(values), len(set(non_null)), low, high, tuple(counts)


@pytest.mark.parametrize(
    "count, floor", [(100_000, 10.0), (8, None)], ids=["100k", "8"]
)
def test_column_stats_against_list_path(count, floor, capsys):
    storage = _decaying_db(count).tables["events"].storage
    storage.mask_data("temp")  # the executor's cached view, built once per append
    columns = ("f", "temp")  # one vector-backed, one list-backed

    def arrays() -> None:
        view = planner_stats(storage)
        view._cache.clear()  # time the build, not the cache hit
        for name in columns:
            view.column(name)

    for name in columns:
        stats = planner_stats(storage).column(name)
        assert _list_column_stats(storage, name) == (
            stats.count,
            stats.distinct,
            stats.min_value,
            stats.max_value,
            stats.histogram.counts,
        )
    slow = time_callable(
        lambda: [_list_column_stats(storage, name) for name in columns], repeats=5
    )["min"]
    fast = time_callable(arrays, repeats=5)["min"]
    _report(capsys, "column stats (f + temp)", count, slow, fast)
    assert floor is None or slow >= floor * fast
