"""SpotSet: a set of rids kept as sorted disjoint intervals, on arrays.

The paper's EGI fungus produces rot *spots* — contiguous insertion
ranges whose freshness melts away together. Tracking membership as a
``set[int]`` makes every cycle O(infected): each member is probed for
neighbours even though only the spot *edges* can grow. A
:class:`SpotSet` stores the same membership as sorted disjoint
inclusive ``[lo, hi]`` intervals in two ``int64`` arrays, ``_starts``
and ``_ends``, and every operation is a handful of numpy calls over
them:

* :meth:`add_runs` merges a batch of runs (one sort, one running max),
  and :meth:`add_many` a batch of rids;
* :meth:`discard_many` subtracts a batch of rids (one interval
  difference);
* :meth:`covers_many` tests a batch of rids (one ``searchsorted``);
* :meth:`members` expands the spans into one rid array.

The scalar :meth:`add`, :meth:`remove` and :meth:`covers` are the
one-element calls of these. The same class holds two things: a
fungus's rot spots and the storage table's tombstone-run index (see
:mod:`repro.storage.table`).

Invariants (checked by the test suite, relied on everywhere):

* spans are sorted ascending and pairwise disjoint;
* no two spans are rid-adjacent (``end + 1 < next start``) — adjacent
  runs merge on insertion;
* every rid inside a span is a member; there is no partial occupancy.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.storage.vector import numpy

_EMPTY = numpy.zeros(0, dtype=numpy.int64)

# The arrays here are mostly small (a few hundred spans), where numpy's
# per-call overhead is the cost; the ndarray methods (``a.searchsorted``,
# ``a.argsort``, ``a.cumsum``) and ``count_nonzero`` skip the dispatch
# layer of their ``numpy.*`` function forms.


def _ascending(rids: Any) -> tuple[Any, Any]:
    """``rids`` as a sorted duplicate-free int64 array, with the steps
    between neighbours (the sort is skipped for ascending input)."""
    arr = numpy.asarray(rids, dtype=numpy.int64)
    steps = arr[1:] - arr[:-1]
    if numpy.count_nonzero(steps <= 0):
        arr = numpy.unique(arr)
        steps = arr[1:] - arr[:-1]
    return arr, steps


def _spans_from(starts: Any, ends: Any, opens: Any) -> tuple[Any, Any]:
    """Collapse sorted runs into spans: ``opens[i]`` says run ``i + 1``
    starts a new span; a span ends where the next one opens."""
    first = numpy.empty(starts.size, dtype=bool)
    first[0] = True
    first[1:] = opens
    last = numpy.empty(starts.size, dtype=bool)
    last[-1] = True
    last[:-1] = opens
    return starts[first], ends[last]


def _intersect(a_starts: Any, a_ends: Any, b_starts: Any, b_ends: Any) -> tuple[Any, Any]:
    """Intersection of two normalised interval sets, normalised.

    Each ``a`` span overlaps the contiguous block of ``b`` spans from the
    first one ending at or after its start to the last one starting at
    or before its end; every (a, b) pair in those blocks contributes
    one piece. Pieces come out ascending, and two of them are never
    adjacent because a gap of either input separates them.
    """
    first = b_ends.searchsorted(a_starts, "left")
    counts = b_starts.searchsorted(a_ends, "right") - first
    past = counts.cumsum()
    total = int(past[-1])
    if total == 0:
        return _EMPTY, _EMPTY
    a_idx = numpy.arange(a_starts.size).repeat(counts)
    # b index of each piece: its a's first b plus its rank in the block
    b_idx = numpy.arange(total) - (past - counts - first).repeat(counts)
    return (
        numpy.maximum(a_starts[a_idx], b_starts[b_idx]),
        numpy.minimum(a_ends[a_idx], b_ends[b_idx]),
    )


class SpotSet:
    """Sorted disjoint non-adjacent inclusive ``[lo, hi]`` rid intervals."""

    __slots__ = ("_starts", "_ends")

    def __init__(self, spans: Iterable[tuple[int, int]] = ()) -> None:
        self._starts: Any = _EMPTY
        self._ends: Any = _EMPTY
        pairs = list(spans)
        if pairs:
            self.add_runs([lo for lo, _ in pairs], [hi for _, hi in pairs])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total member count across all spans."""
        return int((self._ends - self._starts).sum()) + self._starts.size

    def __bool__(self) -> bool:
        return self._starts.size > 0

    def __repr__(self) -> str:
        return f"SpotSet({self.spans()!r})"

    def spans(self) -> list[tuple[int, int]]:
        """The intervals, ascending: ``[(lo, hi), ...]`` inclusive."""
        return list(zip(self._starts.tolist(), self._ends.tolist()))

    def bounds(self) -> tuple[Any, Any]:
        """The ``(starts, ends)`` arrays themselves (read only)."""
        return self._starts, self._ends

    def members(self) -> Any:
        """Every member rid, ascending, as one int64 array."""
        starts, ends = self._starts, self._ends
        if starts.size == 0:
            return _EMPTY
        lengths = ends - starts + 1
        past = lengths.cumsum()
        # the k-th member of span i is starts[i] + k, and k counts from
        # the members of the spans before it
        return numpy.arange(int(past[-1])) + (starts - (past - lengths)).repeat(lengths)

    def covers_many(self, rids: Any) -> Any:
        """Boolean array: is each of ``rids`` a member?"""
        arr = numpy.asarray(rids, dtype=numpy.int64)
        if self._starts.size == 0:
            return numpy.zeros(arr.shape, dtype=bool)
        span = self._starts.searchsorted(arr, "right") - 1
        # span -1 reads the last span's end; the span >= 0 test masks it
        return (span >= 0) & (arr <= self._ends[span])

    def covers(self, rid: int) -> bool:
        """True when ``rid`` is a member: :meth:`covers_span` of one."""
        return self.covers_span(rid, rid)

    def covers_span(self, lo: int, hi: int) -> bool:
        """True when one existing span contains all of ``[lo, hi]``.

        One ``searchsorted``; :meth:`covers` is the one-rid case.
        """
        i = int(self._starts.searchsorted(lo, "right")) - 1
        return i >= 0 and hi <= int(self._ends[i])

    def gaps(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """The maximal runs of non-members within ``[lo, hi]``, ascending."""
        return SpotSet([(lo, hi)]).difference(self).spans()

    def difference(self, other: "SpotSet") -> "SpotSet":
        """The members of this set that ``other`` lacks, as a new set."""
        result = SpotSet()
        if other._starts.size == 0 or self._starts.size == 0:
            result._starts, result._ends = self._starts, self._ends
            return result
        # other's complement: the gaps between its spans, open-ended
        # at both sides (sentinels take no arithmetic)
        lowest = numpy.iinfo(numpy.int64).min
        highest = numpy.iinfo(numpy.int64).max
        gap_starts = numpy.concatenate(([lowest], other._ends + 1))
        gap_ends = numpy.concatenate((other._starts - 1, [highest]))
        result._starts, result._ends = _intersect(
            self._starts, self._ends, gap_starts, gap_ends
        )
        return result

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add_runs(self, starts: Sequence[int] | Any, ends: Sequence[int] | Any) -> None:
        """Add the inclusive runs ``[starts[i], ends[i]]`` in one merge.

        Runs may arrive unsorted and may overlap each other or existing
        spans; the cost is one sort of spans + runs, whatever the
        members they cover.
        """
        new_starts = numpy.asarray(starts, dtype=numpy.int64)
        new_ends = numpy.asarray(ends, dtype=numpy.int64)
        inverted = new_starts > new_ends
        if numpy.count_nonzero(inverted):
            bad = int(inverted.argmax())
            raise ValueError(f"invalid span [{new_starts[bad]}, {new_ends[bad]}]")
        self._merge(new_starts, new_ends)

    def _merge(self, new_starts: Any, new_ends: Any) -> None:
        """:meth:`add_runs` of checked runs."""
        if new_starts.size == 0:
            return
        all_starts = numpy.concatenate((self._starts, new_starts))
        # spans and runs usually arrive each sorted: a stable sort
        # merges two sorted runs in linear time, where the default
        # quicksort degrades on that shape
        order = all_starts.argsort(kind="stable")
        all_starts = all_starts[order]
        reach = numpy.maximum.accumulate(numpy.concatenate((self._ends, new_ends))[order])
        # a span opens where a run starts past everything before it + 1
        self._starts, self._ends = _spans_from(
            all_starts, reach, all_starts[1:] > reach[:-1] + 1
        )

    def add_many(self, rids: Any) -> None:
        """Add every rid in ``rids`` (any order, duplicates allowed)."""
        if len(rids) == 0:
            return
        arr, steps = _ascending(rids)
        runs = _spans_from(arr, arr, steps != 1)
        if self._starts.size:
            self._merge(*runs)
        else:
            self._starts, self._ends = runs

    def add(self, rid: int) -> bool:
        """Add one rid; merges with rid-adjacent spans. False if present."""
        if self.covers(rid):
            return False
        self.add_runs((rid,), (rid,))
        return True

    def discard_many(self, rids: Any) -> None:
        """Remove every member among ``rids`` (non-members are ignored)."""
        if self._starts.size == 0 or len(rids) == 0:
            return
        gone = SpotSet()
        gone.add_many(rids)
        kept = self.difference(gone)
        self._starts, self._ends = kept._starts, kept._ends

    def remove(self, rid: int) -> bool:
        """Remove one rid, splitting its span; False if not a member."""
        if not self.covers(rid):
            return False
        self.discard_many((rid,))
        return True

    def clear(self) -> None:
        """Forget all spans."""
        self._starts = self._ends = _EMPTY

    def remap(self, remap: Mapping[int, int]) -> None:
        """Translate members through a compaction remap.

        Members missing from ``remap`` died before compaction and are
        dropped. Compaction preserves relative order and only closes
        gaps, so surviving members regroup into (possibly fewer,
        possibly merged) contiguous spans.
        """
        moved = [remap[rid] for rid in self.members().tolist() if rid in remap]
        self.clear()
        self.add_many(moved)
