"""The collector reads columns, not rows — and nobody can tell.

The batch fold of ``TupleDecayedBatch`` and the array band sampling must
leave the registry exactly as the per-row forms did; the per-row forms
live on here as the references.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import freshness as freshness_module
from repro.core.db import FungusDB
from repro.core.events import TupleDecayed
from repro.core.freshness import FreshnessBand, band_of
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi import LinearDecayFungus
from repro.obs.collector import BusCollector
from repro.obs.export import render_prometheus
from repro.storage.schema import Schema
from repro.storage.table import Table


class ExpandingCollector(BusCollector):
    """The reference: a coalesced batch counted through its expansion."""

    def _on_decayed_batch(self, event):
        for sub in event.expand():
            self._on_decayed(sub)


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
    expanded = ExpandingCollector().attach(db)
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
    assert render_prometheus(folded.registry) == render_prometheus(expanded.registry)


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
    calls = {"TupleDecayed": 0, "band_of": 0, "column_values": 0, "freshness_values": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        TupleDecayed, "__init__", counted("TupleDecayed", TupleDecayed.__init__)
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
    before = db.bus.counts["TupleDecayedBatch"]
    db.tick(1)
    assert db.bus.counts["TupleDecayedBatch"] == before + 1
    registry = db.telemetry.registry
    assert registry.value("repro_decay_events_total", table="r", fungus="linear") == 25_000
    assert registry.value("repro_band_occupancy", table="r", band="fresh") == 25_000
    assert calls == {
        "TupleDecayed": 0,
        "band_of": 0,
        "column_values": 0,
        "freshness_values": 0,
    }
