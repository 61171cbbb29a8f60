"""SpotSet invariants: sorted disjoint non-adjacent inclusive spans.

The array operations (``add_runs``, ``add_many``, ``discard_many``,
``covers_many``, ``members``, ``difference``, ``gaps``, ``remap``) and
their scalar one-element forms are held to a plain ``set[int]``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fungi import SpotSet


def check_invariants(spots: SpotSet) -> None:
    spans = spots.spans()
    for lo, hi in spans:
        assert lo <= hi
    for (_, prev_hi), (next_lo, _) in zip(spans, spans[1:]):
        assert prev_hi + 1 < next_lo, f"adjacent/overlapping spans: {spans}"


class TestAdd:
    def test_single_member(self):
        s = SpotSet()
        assert s.add(5)
        assert s.spans() == [(5, 5)]
        assert s.covers(5)
        assert not s.covers(4) and not s.covers(6)

    def test_add_existing_is_noop(self):
        s = SpotSet([(3, 7)])
        assert not s.add(5)
        assert s.spans() == [(3, 7)]

    def test_adjacent_left_extends(self):
        s = SpotSet([(3, 5)])
        assert s.add(6)
        assert s.spans() == [(3, 6)]

    def test_adjacent_right_extends(self):
        s = SpotSet([(3, 5)])
        assert s.add(2)
        assert s.spans() == [(2, 5)]

    def test_bridging_member_merges_two_spans(self):
        s = SpotSet([(1, 3), (5, 8)])
        assert s.add(4)
        assert s.spans() == [(1, 8)]

    def test_isolated_member_opens_new_span(self):
        s = SpotSet([(1, 2)])
        assert s.add(10)
        assert s.spans() == [(1, 2), (10, 10)]

    def test_len_and_bool(self):
        s = SpotSet()
        assert not s and len(s) == 0
        s.add_runs([4], [6])
        s.add(9)
        assert s and len(s) == 4

    def test_members_ascending(self):
        s = SpotSet([(5, 6), (1, 2)])
        assert list(s.members()) == [1, 2, 5, 6]

    def test_add_runs_rejects_inverted(self):
        with pytest.raises(ValueError):
            SpotSet().add_runs([1, 5], [2, 3])


class TestRemove:
    def test_remove_non_member(self):
        s = SpotSet([(3, 5)])
        assert not s.remove(9)
        assert s.spans() == [(3, 5)]

    def test_remove_singleton_drops_span(self):
        s = SpotSet([(4, 4), (8, 9)])
        assert s.remove(4)
        assert s.spans() == [(8, 9)]

    def test_remove_edge_trims(self):
        s = SpotSet([(3, 6)])
        assert s.remove(3)
        assert s.spans() == [(4, 6)]
        assert s.remove(6)
        assert s.spans() == [(4, 5)]

    def test_remove_interior_splits(self):
        s = SpotSet([(3, 8)])
        assert s.remove(5)
        assert s.spans() == [(3, 4), (6, 8)]
        check_invariants(s)


class TestReplaceAndRemap:
    def test_clear_then_add_runs_replaces_content(self):
        s = SpotSet([(1, 20)])
        s.clear()
        s.add_runs([2, 9], [4, 11])
        assert s.spans() == [(2, 4), (9, 11)]

    def test_add_runs_merges_touching_input(self):
        s = SpotSet()
        s.add_runs([1, 4, 9], [3, 6, 9])
        assert s.spans() == [(1, 6), (9, 9)]

    def test_remap_drops_dead_and_merges(self):
        s = SpotSet([(2, 4), (8, 9)])
        # rows 3 and 8 died; survivors close ranks
        remap = {2: 0, 4: 1, 9: 2}
        s.remap(remap)
        assert s.spans() == [(0, 2)]

    def test_remap_empty(self):
        s = SpotSet([(2, 4)])
        s.remap({})
        assert not s

    def test_clear(self):
        s = SpotSet([(1, 5)])
        s.clear()
        assert not s and s.spans() == []


class TestAgainstSetModel:
    def test_random_mutations_match_a_plain_set(self):
        """SpotSet is an interval-coded set: same semantics as set[int]."""
        rng = random.Random(7)
        spots, model = SpotSet(), set()
        for _ in range(2000):
            rid = rng.randrange(80)
            if rng.random() < 0.55:
                assert spots.add(rid) == (rid not in model)
                model.add(rid)
            else:
                assert spots.remove(rid) == (rid in model)
                model.discard(rid)
            assert spots.covers(rid) == (rid in model)
        assert list(spots.members()) == sorted(model)
        assert len(spots) == len(model)
        check_invariants(spots)


# -- the array operations against a set[int] model ------------------------

_RID = st.integers(min_value=0, max_value=120)
_RUN = st.tuples(_RID, st.integers(min_value=0, max_value=12)).map(
    lambda pair: (pair[0], pair[0] + pair[1])
)
_OP = st.one_of(
    st.tuples(st.just("add_runs"), st.lists(_RUN, max_size=6)),
    st.tuples(st.just("add_many"), st.lists(_RID, max_size=12)),
    st.tuples(st.just("discard_many"), st.lists(_RID, max_size=12)),
    st.tuples(st.just("add"), _RID),
    st.tuples(st.just("remove"), _RID),
    st.tuples(st.just("remap"), st.sets(_RID, max_size=40)),
    st.tuples(st.just("clear"), st.none()),
)


def _model_spans(model: set[int]) -> list[tuple[int, int]]:
    spans: list[tuple[int, int]] = []
    for rid in sorted(model):
        if spans and rid == spans[-1][1] + 1:
            spans[-1] = (spans[-1][0], rid)
        else:
            spans.append((rid, rid))
    return spans


class TestArrayOperationsAgainstSetModel:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_OP, max_size=25), probes=st.lists(_RID, max_size=20))
    def test_operations_match_a_plain_set(self, ops, probes):
        spots, model = SpotSet(), set()
        for op, arg in ops:
            if op == "add_runs":
                spots.add_runs([lo for lo, _ in arg], [hi for _, hi in arg])
                for lo, hi in arg:
                    model.update(range(lo, hi + 1))
            elif op == "add_many":
                spots.add_many(arg)
                model.update(arg)
            elif op == "discard_many":
                spots.discard_many(arg)
                model.difference_update(arg)
            elif op == "add":
                assert spots.add(arg) == (arg not in model)
                model.add(arg)
            elif op == "remove":
                assert spots.remove(arg) == (arg in model)
                model.discard(arg)
            elif op == "remap":
                # compaction: the survivors close ranks in order
                remap = {old: new for new, old in enumerate(sorted(arg))}
                spots.remap(remap)
                model = {remap[rid] for rid in model if rid in remap}
            else:
                spots.clear()
                model.clear()
            check_invariants(spots)
            assert spots.spans() == _model_spans(model)
        assert spots.members().tolist() == sorted(model)
        assert spots.members().dtype.kind == "i"
        assert len(spots) == len(model)
        assert bool(spots) == bool(model)
        assert spots.covers_many(probes).tolist() == [rid in model for rid in probes]
        assert [spots.covers(rid) for rid in probes] == [rid in model for rid in probes]
        starts, ends = spots.bounds()
        assert list(zip(starts.tolist(), ends.tolist())) == spots.spans()

    @settings(max_examples=150, deadline=None)
    @given(
        left=st.sets(_RID, max_size=60),
        right=st.sets(_RID, max_size=60),
        window=st.tuples(_RID, _RID),
    )
    def test_difference_and_gaps_match_a_plain_set(self, left, right, window):
        a, b = SpotSet(), SpotSet()
        a.add_many(sorted(left))
        b.add_many(sorted(right))
        diff = a.difference(b)
        check_invariants(diff)
        assert diff.members().tolist() == sorted(left - right)
        # the operands are untouched
        assert a.members().tolist() == sorted(left)
        assert b.members().tolist() == sorted(right)
        lo, hi = min(window), max(window)
        assert b.gaps(lo, hi) == _model_spans(set(range(lo, hi + 1)) - right)

    @settings(max_examples=100, deadline=None)
    @given(spans=st.lists(_RUN, max_size=8), lo=_RID, width=st.integers(0, 30))
    def test_covers_span_means_one_span_holds_the_range(self, spans, lo, width):
        spots = SpotSet(spans)
        hi = lo + width
        inside = [s for s, e in spots.spans() if s <= lo and hi <= e]
        assert spots.covers_span(lo, hi) == bool(inside)
