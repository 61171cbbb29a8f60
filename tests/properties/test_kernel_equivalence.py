"""The vector decay kernels against the scalar reference, on one backend.

Every table keeps ``t``/``f`` and its live mask in arrays; what differs
is the kernel a batch runs through. ``_SMALL_BATCH`` pinned above any
batch size routes every batch to the scalar ``_apply_batch_py`` (and
the fungi's decay gathers are the same arrays either way); the vector side runs
with it pinned to 0 in half the cases, so even tiny batches exercise the
vector kernel, and at the product default in the other half. Both must
be *bit-identical*: same freshness columns, same exhausted sets, same
per-tuple decay event streams — across random schedules of batch
mutations, pins, evictions and mid-run compaction.

The storage navigation primitives (``live_runs``, ``prev_live``,
``next_live``, ``live_list``, ``live_rows``, ``neighbours``) and the
tombstone-run index they read are held to a plain list walk over the
live mask.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.table as core_table
from repro.core.clock import DecayClock
from repro.core.events import TupleDecayedBatch
from repro.core.table import DecayingTable
from repro.fungi import BlueCheeseFungus, EGIFungus
from repro.storage import RowSet, Schema, Table

_DEFAULT_SMALL_BATCH = core_table._SMALL_BATCH
#: a threshold no batch reaches: everything runs the scalar kernel
_SCALAR_ONLY = 10**9


@contextmanager
def small_batch(threshold: int):
    """Temporarily set the scalar-routing threshold (0 = always vector)."""
    core_table._SMALL_BATCH = threshold
    try:
        yield
    finally:
        core_table._SMALL_BATCH = _DEFAULT_SMALL_BATCH


def _vector_threshold(force_vector: bool) -> int:
    return 0 if force_vector else _DEFAULT_SMALL_BATCH


def _build(n_rows: int) -> tuple[DecayingTable, list]:
    clock = DecayClock()
    table = DecayingTable("r", Schema.of(v="int"), clock)
    events: list = []
    table.bus.subscribe(
        TupleDecayedBatch,
        lambda e: events.extend(
            (e.tick, rid, old, new, e.fungus)
            for rid, old, new in zip(e.rids, e.old_freshness, e.new_freshness)
        ),
    )
    for i in range(n_rows):
        table.insert({"v": i})
        clock.advance(1)
    return table, events


def _freshness_state(table: DecayingTable) -> list[tuple[int, float]]:
    return [
        (rid, table.freshness(rid))
        for rid in range(table.storage.allocated)
        if table.storage.is_live(rid)
    ]


def _drain_exhausted(table: DecayingTable, fungus) -> None:
    dead = sorted(table.exhausted)
    if dead:
        table.evict(table.exhausted, "decay")
        fungus.on_evicted(dead)


# one mutation step of a schedule: (op, rid-offsets, operand)
_STEP = st.tuples(
    st.sampled_from(["decay", "scale", "set", "pin", "unpin", "evict", "compact"]),
    st.lists(st.integers(min_value=0, max_value=59), min_size=0, max_size=20),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False, width=64),
)


def _apply(table: DecayingTable, steps, n_rows: int) -> None:
    for op, offsets, operand in steps:
        live = [rid for rid in offsets if rid < n_rows and table.storage.is_live(rid)]
        rids = sorted(set(live))
        if op == "decay":
            table.decay_many(rids, abs(operand), "sched")
        elif op == "scale":
            table.scale_many(rids, min(abs(operand), 1.0), "sched")
        elif op == "set":
            table.set_freshness_many(rids, [operand] * len(rids), "sched")
        elif op == "pin":
            for rid in rids:
                table.pin(rid)
        elif op == "unpin":
            for rid in rids:
                table.unpin(rid)
        elif op == "evict" and rids:
            table.evict(RowSet(rids[:3]), "manual")
        elif op == "compact":
            table.compact()


class TestScheduleEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        steps=st.lists(_STEP, min_size=1, max_size=15),
        n_rows=st.integers(min_value=1, max_value=60),
        force_vector=st.booleans(),
    )
    def test_batch_mutator_schedules_are_backend_identical(
        self, steps, n_rows, force_vector
    ):
        """Random mutation schedules leave both kernels bit-identical."""
        with small_batch(_vector_threshold(force_vector)):
            vec, vec_events = _build(n_rows)
            _apply(vec, steps, n_rows)
        with small_batch(_SCALAR_ONLY):
            py, py_events = _build(n_rows)
            _apply(py, steps, n_rows)

        assert _freshness_state(vec) == _freshness_state(py)
        assert sorted(vec.exhausted) == sorted(py.exhausted)
        assert vec_events == py_events
        assert vec.bus.counts == py.bus.counts


class TestFungusEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=80),
        ticks=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.sampled_from([0.05, 0.2, 0.6]),
        force_vector=st.booleans(),
    )
    def test_egi_spread_is_backend_identical(
        self, n_rows, ticks, seed, rate, force_vector
    ):
        """EGI on the SpotSet engine evolves identically on both kernels."""
        states = []
        for threshold in (_vector_threshold(force_vector), _SCALAR_ONLY):
            with small_batch(threshold):
                table, events = _build(n_rows)
                fungus = EGIFungus(seeds_per_cycle=2, decay_rate=rate)
                rng = random.Random(seed)
                for _ in range(ticks):
                    fungus.cycle(table, rng)
                    # evict exhausted rows so spots fragment on tombstones
                    _drain_exhausted(table, fungus)
                states.append(
                    (
                        _freshness_state(table),
                        sorted(table.exhausted),
                        events,
                        fungus.infected,
                    )
                )
        assert states[0] == states[1]

    @settings(max_examples=15, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=60),
        ticks=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=2**16),
        force_vector=st.booleans(),
    )
    def test_blue_cheese_is_backend_identical(
        self, n_rows, ticks, seed, force_vector
    ):
        states = []
        for threshold in (_vector_threshold(force_vector), _SCALAR_ONLY):
            with small_batch(threshold):
                table, events = _build(n_rows)
                fungus = BlueCheeseFungus(
                    max_spots=2, base_rate=0.15, acceleration=0.5
                )
                rng = random.Random(seed)
                for _ in range(ticks):
                    fungus.cycle(table, rng)
                    _drain_exhausted(table, fungus)
                states.append(
                    (_freshness_state(table), sorted(table.exhausted), events)
                )
        assert states[0] == states[1]

    @settings(max_examples=20, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=60),
        ticks=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
        compact_every=st.integers(min_value=1, max_value=5),
    )
    def test_egi_with_midrun_compaction_is_backend_identical(
        self, n_rows, ticks, seed, compact_every
    ):
        """Compaction remaps spots identically on both kernels."""
        states = []
        for threshold in (0, _SCALAR_ONLY):
            with small_batch(threshold):
                table, _ = _build(n_rows)
                fungus = EGIFungus(seeds_per_cycle=2, decay_rate=0.5)
                rng = random.Random(seed)
                for step in range(ticks):
                    fungus.cycle(table, rng)
                    _drain_exhausted(table, fungus)
                    if step % compact_every == compact_every - 1:
                        remap = table.compact()
                        if remap:
                            fungus.on_compacted(remap)
                states.append(
                    (
                        _freshness_state(table),
                        sorted(table.exhausted),
                        fungus.infected,
                    )
                )
        assert states[0] == states[1]


class TestPinEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=50),
        pin_offsets=st.lists(st.integers(min_value=0, max_value=49), max_size=10),
        amount=st.floats(
            min_value=0.0, max_value=1.5, allow_nan=False, width=64
        ),
        force_vector=st.booleans(),
    )
    def test_pins_are_honoured_identically(
        self, n_rows, pin_offsets, amount, force_vector
    ):
        """Pinned rows never lose freshness, on either kernel."""
        results = []
        for threshold in (_vector_threshold(force_vector), _SCALAR_ONLY):
            with small_batch(threshold):
                table, _ = _build(n_rows)
                pinned = sorted({o for o in pin_offsets if o < n_rows})
                for rid in pinned:
                    table.pin(rid)
                table.decay_many(list(range(n_rows)), amount, "sched")
                results.append(_freshness_state(table))
                for rid in pinned:
                    assert table.freshness(rid) == 1.0
        assert results[0] == results[1]


# -- storage navigation against a list walk over the live mask ----------


def _walk_live_runs(live: list[bool], lo: int, hi: int) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    start = None
    hi = min(hi, len(live) - 1)
    for rid in range(max(lo, 0), hi + 1):
        if live[rid]:
            if start is None:
                start = rid
        elif start is not None:
            runs.append((start, rid - 1))
            start = None
    if start is not None:
        runs.append((start, hi))
    return runs


def _walk_prev_live(live: list[bool], rid: int) -> int | None:
    return next((cand for cand in range(rid - 1, -1, -1) if live[cand]), None)


def _walk_next_live(live: list[bool], rid: int) -> int | None:
    return next((cand for cand in range(rid + 1, len(live)) if live[cand]), None)


class TestNavigationEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=90),
        dead=st.sets(st.integers(min_value=0, max_value=89)),
        compact=st.booleans(),
        spans=st.lists(
            st.tuples(
                st.integers(min_value=-3, max_value=95),
                st.integers(min_value=-3, max_value=95),
            ),
            max_size=8,
        ),
    )
    def test_navigation_matches_a_list_walk(self, n_rows, dead, compact, spans):
        """Batch deletes on both sides of the 32-rid cut, then compaction."""
        table = Table(Schema.of(v="int"), name="r")
        table.append_many([(i,) for i in range(n_rows)])
        table.delete_many(sorted(rid for rid in dead if rid < n_rows))
        if compact:
            table.compact()
        live = list(table.live_mask())
        walked = [rid for rid, alive in enumerate(live) if alive]
        assert table.live_list() == walked
        assert list(table.live_rows()) == walked
        for rid in range(len(live)):
            assert table.prev_live(rid) == _walk_prev_live(live, rid)
            assert table.next_live(rid) == _walk_next_live(live, rid)
        for lo, hi in [(0, len(live) - 1), *spans]:
            assert table.live_runs(lo, hi) == _walk_live_runs(live, lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=90),
        batches=st.lists(
            st.tuples(st.sets(st.integers(min_value=0, max_value=130)), st.booleans()),
            max_size=4,
        ),
        appended=st.integers(min_value=0, max_value=40),
        spans=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=130),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=8,
        ),
    )
    def test_tombstone_runs_and_neighbours_match_a_list_walk(
        self, n_rows, batches, appended, spans
    ):
        """Several delete batches, each maybe followed by compaction, then
        an append: the run index, ``neighbours`` and ``live_rows`` agree
        with walks over the live mask."""
        table = Table(Schema.of(v="int", f="float"), name="r", freshness_column="f")
        table.append_many([(i, 1.0) for i in range(n_rows)])
        for dead, compact in batches:
            live = table.live_list()
            victims = sorted({live[d % len(live)] for d in dead}) if live else []
            table.delete_many(victims)
            if compact:
                table.compact()
        table.append_many([(i, 1.0) for i in range(appended)])
        live = list(table.live_mask())
        dead_runs = _walk_live_runs([not alive for alive in live], 0, len(live) - 1)
        assert table._tombs.spans() == dead_runs
        assert table.tombstones == sum(hi - lo + 1 for lo, hi in dead_runs)
        # neighbours takes rids of the row space: none exist once
        # compaction has emptied the table
        edges = [
            (min(lo, len(live) - 1), min(lo + width, len(live) - 1))
            for lo, width in spans
            if live
        ]
        before, after = table.neighbours([lo for lo, _ in edges], [hi for _, hi in edges])
        assert before.tolist() == [
            _or_minus_one(_walk_prev_live(live, lo)) for lo, _ in edges
        ]
        assert after.tolist() == [
            _or_minus_one(_walk_next_live(live, hi)) for _, hi in edges
        ]
        assert list(table.live_rows()) == [
            rid for rid, alive in enumerate(live) if alive
        ]


def _or_minus_one(rid: int | None) -> int:
    return -1 if rid is None else rid
