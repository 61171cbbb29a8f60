"""The collector reads columns, not rows — and nobody can tell.

The batch folds of ``TupleDecayedBatch``, ``TupleEvictedBatch`` and
``TupleConsumedBatch`` and the array band sampling must leave the
registry exactly as the per-row forms did; the per-row forms live on
here as the references.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import freshness as freshness_module
from repro.core.db import FungusDB
from repro.core.events import TupleDecayedBatch
from repro.core.freshness import FreshnessBand, band_of
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi import EGIFungus, LinearDecayFungus
from repro.obs.collector import BusCollector
from repro.obs.export import render_prometheus
from repro.storage.schema import Schema
from repro.storage.table import Table


class RowWalkingCollector(BusCollector):
    """The reference: a decay batch counted row by row."""

    def _on_decayed_batch(self, event: TupleDecayedBatch) -> None:
        labels = {"table": event.table, "fungus": event.fungus}
        for old, new in zip(event.old_freshness, event.new_freshness):
            delta = old - new
            if delta >= 0:
                self.decay_events.labels(**labels).inc()
                self.freshness_removed.labels(**labels).inc(delta)
            else:
                self.freshness_restored.labels(**labels).inc(-delta)


class PerRowCollector(BusCollector):
    """The reference: one ``inc()`` and one ``mark(1.0)`` per evicted or
    consumed tuple of a batch."""

    def _on_evicted_batch(self, event):
        for _ in event.rids:
            self.evictions.labels(table=event.table, reason=event.reason).inc()
            self.eviction_rate.labels(table=event.table).mark(1.0, now=event.tick)

    def _on_consumed_batch(self, event):
        for _ in event.rids:
            self.consumed.labels(table=event.table).inc()
            self.consume_rate.labels(table=event.table).mark(1.0, now=event.tick)


#: the series a batch marks once with its length instead of once per row
RATE_SERIES = ("repro_eviction_rate{", "repro_consume_rate{")


def _split_rates(text: str) -> tuple[list[str], dict[str, float]]:
    """Exposition lines other than the rate samples, and the rate samples."""
    rest, rates = [], {}
    for line in text.splitlines():
        if line.startswith(RATE_SERIES):
            series, value = line.rsplit(" ", 1)
            rates[series] = float(value)
        else:
            rest.append(line)
    return rest, rates


ROWS = 80  # batches of 1..80 rids fall on both sides of _SMALL_BATCH (32)

mutations = st.tuples(
    st.sampled_from(["a", "b"]),
    st.sampled_from(["decay", "scale", "set"]),
    st.sampled_from(["egi", "linear"]),
    st.sets(st.integers(min_value=0, max_value=ROWS - 1), min_size=1, max_size=ROWS),
    # amounts past 1.0 exercise both clamps; "set" targets raise as well as lower
    st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(mutations, max_size=25),
    pins=st.sets(st.integers(min_value=0, max_value=ROWS - 1), max_size=10),
)
def test_batch_fold_is_byte_equal_to_the_expand_loop(schedule, pins):
    db = FungusDB(seed=3)
    for name in ("a", "b"):
        db.create_table(name, Schema.of(v="int"))
        db.insert_many(name, [{"v": i} for i in range(ROWS)])
    for rid in pins:
        db.tables["a"].pin(rid)
    folded = BusCollector().attach(db)
    walked = RowWalkingCollector().attach(db)
    for name, kind, fungus, rids, amount in schedule:
        table = db.tables[name]
        rids = sorted(rids)
        try:
            if kind == "decay":
                table.decay_many(rids, amount, fungus)
            elif kind == "scale":
                table.scale_many(rids, amount, fungus)
            else:
                # a ramp around ``amount``: some rows rise, some fall
                values = [amount * (i % 3) / 2 for i in range(len(rids))]
                table.set_freshness_many(rids, values, fungus)
        except DecayError:
            pass  # scale factors above 1.0 are rejected before any write
    assert render_prometheus(folded.registry) == render_prometheus(walked.registry)


def _reference_gauges(table):
    bands = {band: 0 for band in FreshnessBand}
    for f in table.freshness_values():
        bands[band_of(f)] += 1
    return {band.value: float(count) for band, count in bands.items()}


def _sampled_gauges(collector, name):
    collector.sample_table(name)
    return {
        band.value: collector.registry.value(
            "repro_band_occupancy", table=name, band=band.value
        )
        for band in FreshnessBand
    }


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=120),
    ticks=st.integers(min_value=0, max_value=6),
    threshold=st.integers(min_value=0, max_value=120),
)
def test_sampled_bands_equal_a_band_of_loop(rows, ticks, threshold):
    db = FungusDB(seed=9)
    db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.17))
    collector = BusCollector().attach(db)
    table = db.tables["r"]

    def check():
        assert _sampled_gauges(collector, "r") == _reference_gauges(table)
        registry = collector.registry
        assert registry.value("repro_exhausted", table="r") == len(table.exhausted)
        assert registry.value("repro_pinned", table="r") == len(table.pinned)

    check()  # empty table
    db.insert_many("r", [{"v": i} for i in range(rows)])
    if rows:
        table.pin(0)
    for _ in range(ticks):
        db.tick(1)
        db.insert_many("r", [{"v": rows + i} for i in range(5)])
        check()
    db.query(f"CONSUME SELECT v FROM r WHERE v < {threshold}")
    check()
    table.compact()
    check()


def test_one_tick_over_25k_rows_builds_no_per_row_object(monkeypatch):
    """Telemetry on, 25k rows decaying: every observer stays on the arrays."""
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.01))
    db.enable_telemetry()
    db.insert_many("r", [{"v": i} for i in range(25_000)])
    calls = {
        "TupleDecayedBatch": 0,
        "band_of": 0,
        "column_values": 0,
        "freshness_values": 0,
    }

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        TupleDecayedBatch,
        "__init__",
        counted("TupleDecayedBatch", TupleDecayedBatch.__init__),
    )
    # band_of is bound by name wherever it is imported; the clamp it
    # calls through its own module's globals is not
    monkeypatch.setattr(
        freshness_module,
        "clamp_freshness",
        counted("band_of", freshness_module.clamp_freshness),
    )
    monkeypatch.setattr(
        Table, "column_values", counted("column_values", Table.column_values)
    )
    monkeypatch.setattr(
        DecayingTable,
        "freshness_values",
        counted("freshness_values", DecayingTable.freshness_values),
    )
    before = db.bus.counts["TupleDecayed"]
    db.tick(1)
    assert db.bus.counts["TupleDecayed"] == before + 25_000
    registry = db.telemetry.registry
    assert registry.value("repro_decay_events_total", table="r", fungus="linear") == 25_000
    assert registry.value("repro_band_occupancy", table="r", band="fresh") == 25_000
    assert calls == {
        "TupleDecayedBatch": 1,  # the one event of the tick's decay
        "band_of": 0,
        "column_values": 0,
        "freshness_values": 0,
    }


def test_eviction_and_consume_folds_are_byte_equal_to_per_row_folds():
    """Every series but the two rates is byte-equal; a rate marked once
    per batch differs from its per-row marks only by their rounding."""
    db = FungusDB(seed=5)
    for name in ("a", "b"):
        db.create_table(
            name,
            Schema.of(k="int"),
            fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.3),
            compact_every=4,
        )
    folded = BusCollector().attach(db)
    per_row = PerRowCollector().attach(db)
    rng = random.Random(5)
    for step in range(60):
        name = rng.choice(("a", "b"))
        db.insert_many(name, [{"k": rng.randrange(10)} for _ in range(rng.randint(1, 60))])
        db.tick(rng.randint(1, 2))  # the rates decay between marks
        if step % 3 == 0:
            db.query(f"CONSUME SELECT k FROM {name} WHERE k < {rng.randrange(10)}")
        if step % 7 == 0:
            db.query(f"DELETE FROM {name} WHERE k = {rng.randrange(10)}")
    registry = folded.registry
    assert registry.value("repro_evictions_total", table="a", reason="decay") > 0
    assert registry.value("repro_consumed_tuples_total", table="b") > 0
    rate = registry.value("repro_eviction_rate", table="a")
    assert rate != round(rate)  # fractional mass: rounding can show
    folded_rest, folded_rates = _split_rates(render_prometheus(folded.registry))
    per_row_rest, per_row_rates = _split_rates(render_prometheus(per_row.registry))
    assert folded_rest == per_row_rest
    assert folded_rates.keys() == per_row_rates.keys() and len(folded_rates) == 4
    for series, value in per_row_rates.items():
        assert folded_rates[series] == pytest.approx(value, rel=1e-12, abs=1e-12)
