"""Property-based tests of the health report's accounting identities."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import DecayClock
from repro.core.freshness import ROTTEN_THRESHOLD, FreshnessBand, band_of
from repro.core.health import HealthReport, measure_health
from repro.core.table import DecayingTable
from repro.storage import RowSet, Schema


@st.composite
def mutated_tables(draw):
    """A decaying table after random freshness edits and evictions."""
    n = draw(st.integers(min_value=0, max_value=40))
    clock = DecayClock()
    table = DecayingTable("r", Schema.of(v="int"), clock)
    for i in range(n):
        table.insert({"v": i})
    freshness_edits = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=max(n - 1, 0)),
                st.floats(min_value=0, max_value=1, allow_nan=False),
            ),
            max_size=30,
        )
    )
    for rid, f in freshness_edits:
        if n and table.is_live(rid):
            table.set_freshness(rid, f)
    evictions = draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=15))
    live_evictions = RowSet(rid for rid in evictions if n and table.is_live(rid))
    if live_evictions:
        table.evict(live_evictions, "manual")
    pins = draw(st.sets(st.integers(min_value=0, max_value=max(n - 1, 0)), max_size=5))
    for rid in pins:
        if n and table.is_live(rid):
            table.pin(rid)
    return table


@settings(max_examples=60, deadline=None)
@given(table=mutated_tables())
def test_band_counts_partition_the_extent(table):
    """fresh + stale + rotten == extent, always."""
    health = measure_health(table)
    assert health.fresh_count + health.stale_count + health.rotten_count == health.extent


@settings(max_examples=60, deadline=None)
@given(table=mutated_tables())
def test_holes_account_for_all_tombstones(table):
    """The hole spans cover exactly the tombstoned row ids."""
    health = measure_health(table)
    hole_rows = sum(stop - start for start, stop in health.holes)
    assert hole_rows == health.tombstones
    assert health.extent + health.tombstones == health.allocated


@settings(max_examples=60, deadline=None)
@given(table=mutated_tables())
def test_rot_spots_cover_exactly_the_rotten_rows(table):
    """Every rotten live row is inside exactly one reported spot."""
    from repro.core.freshness import ROTTEN_THRESHOLD

    health = measure_health(table)
    rotten = {
        rid for rid in table.live_rows() if table.freshness(rid) < ROTTEN_THRESHOLD
    }
    in_spots = set()
    for start, stop in health.rot_spots:
        for rid in range(start, stop):
            if table.is_live(rid):
                in_spots.add(rid)
    # spots may bridge tombstone gaps, but live membership must match
    assert {rid for rid in in_spots if rid in rotten} == rotten


@settings(max_examples=60, deadline=None)
@given(table=mutated_tables())
def test_edible_fraction_bounds(table):
    """Edible fraction is a probability and matches the band counts."""
    health = measure_health(table)
    assert 0.0 <= health.edible_fraction <= 1.0
    if health.extent:
        expected = 1.0 - health.rotten_count / health.extent
        assert abs(health.edible_fraction - expected) < 1e-12


def _per_row_health(table):
    """The per-row walk ``measure_health`` used to be, as the reference."""
    freshness, bands = [], {band: 0 for band in FreshnessBand}
    rot_spots, spot_start, prev_rid = [], None, None
    for rid in table.live_rows():
        f = table.freshness(rid)
        freshness.append(f)
        bands[band_of(f)] += 1
        if f < ROTTEN_THRESHOLD:
            if spot_start is None:
                spot_start = rid
            prev_rid = rid
        elif spot_start is not None:
            rot_spots.append((spot_start, prev_rid + 1))
            spot_start = None
    if spot_start is not None:
        rot_spots.append((spot_start, prev_rid + 1))
    holes, hole_start = [], None
    for rid in range(table.storage.allocated):
        if not table.storage.is_live(rid):
            if hole_start is None:
                hole_start = rid
        elif hole_start is not None:
            holes.append((hole_start, rid))
            hole_start = None
    if hole_start is not None:
        holes.append((hole_start, table.storage.allocated))
    return HealthReport(
        table=table.name,
        tick=table.clock.now,
        extent=len(table),
        allocated=table.storage.allocated,
        tombstones=table.storage.tombstones,
        exhausted=len(table.exhausted),
        pinned=len(table.pinned),
        mean_freshness=sum(freshness) / len(freshness) if freshness else None,
        min_freshness=min(freshness) if freshness else None,
        fresh_count=bands[FreshnessBand.FRESH],
        stale_count=bands[FreshnessBand.STALE],
        rotten_count=bands[FreshnessBand.ROTTEN],
        rot_spots=tuple(rot_spots),
        holes=tuple(holes),
    )


@settings(max_examples=100, deadline=None)
@given(table=mutated_tables())
def test_array_report_equals_the_per_row_walk(table):
    """Every field equal; the mean (pairwise vs left-to-right sum) to 1e-12."""
    got, want = measure_health(table), _per_row_health(table)
    assert replace(got, mean_freshness=None) == replace(want, mean_freshness=None)
    assert got.mean_freshness == pytest.approx(want.mean_freshness, rel=1e-12, abs=0.0)
    for report in (got, want):
        assert all(type(v) is int for spot in report.rot_spots + report.holes for v in spot)
    table.compact()
    assert replace(measure_health(table), mean_freshness=None) == replace(
        _per_row_health(table), mean_freshness=None
    )

