"""Property-based tests of the paper's two natural laws.

These are the invariants the whole reproduction stands on:

* Law 1 — under any pure-decay fungus, freshness never increases, and
  a relation left alone long enough completely disappears.
* Law 2 — for any predicate, ``A = σ_P(R)`` and ``R' = R − A``:
  the answer set and the reduced extent partition the old extent.
* Conservation — with distillation on, every tuple that ever entered
  R is either live or summarised; none vanish unseen.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import DecayClock
from repro.core.db import FungusDB
from repro.core.table import DecayingTable
from repro.fungi import (
    BlueCheeseFungus,
    EGIFungus,
    ExponentialDecayFungus,
    LinearDecayFungus,
    RetentionFungus,
)
from repro.storage import Schema

pure_decay_fungi = st.sampled_from(
    [
        lambda: RetentionFungus(max_age=5),
        lambda: LinearDecayFungus(rate=0.3),
        lambda: ExponentialDecayFungus(half_life=2, evict_below=0.05),
        lambda: EGIFungus(seeds_per_cycle=2, decay_rate=0.4),
        lambda: BlueCheeseFungus(max_spots=2, base_rate=0.2, acceleration=0.5),
    ]
)


@settings(max_examples=25, deadline=None)
@given(
    make_fungus=pure_decay_fungi,
    n_rows=st.integers(min_value=1, max_value=40),
    cycles=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_law1_freshness_never_increases(make_fungus, n_rows, cycles, seed):
    """No pure-decay fungus ever raises any tuple's freshness."""
    clock = DecayClock()
    table = DecayingTable("r", Schema.of(v="int"), clock)
    for i in range(n_rows):
        table.insert({"v": i})
    fungus = make_fungus()
    rng = random.Random(seed)
    previous = {rid: table.freshness(rid) for rid in table.live_rows()}
    for _ in range(cycles):
        clock.advance(1)
        fungus.cycle(table, rng)
        for rid in table.live_rows():
            assert table.freshness(rid) <= previous[rid] + 1e-12
            previous[rid] = table.freshness(rid)


@settings(max_examples=15, deadline=None)
@given(
    make_fungus=pure_decay_fungi,
    n_rows=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_law1_complete_disappearance(make_fungus, n_rows, seed):
    """Left alone, every fungus eventually removes the whole relation."""
    db = FungusDB(seed=seed)
    db.create_table("r", Schema.of(v="int"), fungus=make_fungus())
    db.insert_many("r", [{"v": i} for i in range(n_rows)])
    for _ in range(500):
        db.tick(1)
        if db.extent("r") == 0:
            break
    assert db.extent("r") == 0


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-50, max_value=50), min_size=0, max_size=60),
    low=st.integers(min_value=-60, max_value=60),
    span=st.integers(min_value=0, max_value=60),
)
def test_law2_partition(values, low, span):
    """CONSUME splits R exactly into answer set + reduced extent."""
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(v="int"), fungus=None)
    db.insert_many("r", [{"v": v} for v in values])
    high = low + span
    expected_answer = sorted(v for v in values if low <= v <= high)
    expected_rest = sorted(v for v in values if not (low <= v <= high))

    res = db.query(f"CONSUME SELECT v FROM r WHERE v BETWEEN {low} AND {high}")
    assert sorted(res.column("v")) == expected_answer
    remaining = db.query("SELECT v FROM r")
    assert sorted(remaining.column("v")) == expected_rest
    assert len(res.consumed) + db.extent("r") == len(values)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=40),
    thresholds=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=5),
)
def test_law2_consume_is_idempotent_per_predicate(values, thresholds):
    """Re-running the same consuming query returns an empty answer."""
    db = FungusDB(seed=2)
    db.create_table("r", Schema.of(v="int"), fungus=None)
    db.insert_many("r", [{"v": v} for v in values])
    total_consumed = 0
    for threshold in thresholds:
        first = db.query(f"CONSUME SELECT v FROM r WHERE v = {threshold}")
        second = db.query(f"CONSUME SELECT v FROM r WHERE v = {threshold}")
        assert len(second) == 0
        total_consumed += len(first)
    assert total_consumed + db.extent("r") == len(values)


@settings(max_examples=15, deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=50),
    cycles=st.integers(min_value=0, max_value=30),
    consume_at=st.integers(min_value=0, max_value=25),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_nothing_dies_unseen(n_rows, cycles, consume_at, seed):
    """live + summarised == ever-inserted, through decay AND consume."""
    db = FungusDB(seed=seed)
    db.create_table(
        "r",
        Schema.of(v="int"),
        fungus=EGIFungus(seeds_per_cycle=2, decay_rate=0.4),
        distill_on_evict=True,
    )
    db.insert_many("r", [{"v": i} for i in range(n_rows)])
    for tick in range(cycles):
        if tick == consume_at:
            db.query("CONSUME SELECT v FROM r WHERE v % 3 = 0")
        db.tick(1)
    merged = db.merged_summary("r")
    summarised = merged.row_count if merged else 0
    assert db.extent("r") + summarised == n_rows
