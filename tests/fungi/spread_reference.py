"""The per-span EGI and Blue Cheese cycles: the reference the array pass
is held to.

These are the spot fungi as they ran span by span: membership in
list-backed sorted intervals, neighbours found by an ``argmax`` probe
across the tombstones, dead members dropped by intersecting every span
with the live mask, the decay gather done span by span and one
infection event published per infected row. Nothing here is product
code; ``tests/fungi/test_spread_equivalence.py`` and
``benchmarks/bench_kernels.py`` both use this one copy.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy

import repro.core.table as core_table
from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable


class ListSpots:
    """Sorted disjoint non-adjacent inclusive intervals in two lists."""

    def __init__(self, spans: Iterable[tuple[int, int]] = ()) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.replace(spans)

    def __bool__(self) -> bool:
        return bool(self.starts)

    def spans(self) -> list[tuple[int, int]]:
        return list(zip(self.starts, self.ends))

    def members(self) -> Iterator[int]:
        for lo, hi in zip(self.starts, self.ends):
            yield from range(lo, hi + 1)

    def covers(self, rid: int) -> bool:
        i = bisect_right(self.starts, rid) - 1
        return i >= 0 and rid <= self.ends[i]

    def add(self, rid: int) -> bool:
        starts, ends = self.starts, self.ends
        i = bisect_right(starts, rid) - 1
        if i >= 0 and rid <= ends[i]:
            return False
        joins_left = i >= 0 and ends[i] == rid - 1
        joins_right = i + 1 < len(starts) and starts[i + 1] == rid + 1
        if joins_left and joins_right:
            ends[i] = ends[i + 1]
            del starts[i + 1]
            del ends[i + 1]
        elif joins_left:
            ends[i] = rid
        elif joins_right:
            starts[i + 1] = rid
        else:
            starts.insert(i + 1, rid)
            ends.insert(i + 1, rid)
        return True

    def remove(self, rid: int) -> bool:
        starts, ends = self.starts, self.ends
        i = bisect_right(starts, rid) - 1
        if i < 0 or rid > ends[i]:
            return False
        lo, hi = starts[i], ends[i]
        if lo == hi:
            del starts[i]
            del ends[i]
        elif rid == lo:
            starts[i] = rid + 1
        elif rid == hi:
            ends[i] = rid - 1
        else:
            ends[i] = rid - 1
            starts.insert(i + 1, rid + 1)
            ends.insert(i + 1, hi)
        return True

    def replace(self, spans: Iterable[tuple[int, int]]) -> None:
        """Take sorted runs; touching ones merge."""
        starts: list[int] = []
        ends: list[int] = []
        for lo, hi in spans:
            if starts and lo <= ends[-1] + 1:
                ends[-1] = max(ends[-1], hi)
                continue
            starts.append(lo)
            ends.append(hi)
        self.starts, self.ends = starts, ends

    def remap(self, remap: Mapping[int, int]) -> None:
        new_ids = sorted(remap[rid] for rid in self.members() if rid in remap)
        self.replace((rid, rid) for rid in new_ids)


# -- the storage walks of the per-span cycle -------------------------------


def prev_live(table: DecayingTable, rid: int) -> int | None:
    """Nearest live rid before ``rid``: one ``argmax`` probe backwards."""
    if rid == 0:
        return None
    live = table.storage.live_mask()
    if live[rid - 1]:
        return rid - 1
    before = live[rid - 1 :: -1]
    pos = int(numpy.argmax(before))
    return rid - 1 - pos if before[pos] else None


def next_live(table: DecayingTable, rid: int) -> int | None:
    """Nearest live rid after ``rid``: one ``argmax`` probe forwards."""
    if rid + 1 >= table.storage.allocated:
        return None
    live = table.storage.live_mask()
    if live[rid + 1]:
        return rid + 1
    after = live[rid + 2 :]
    if after.size == 0:
        return None
    pos = int(numpy.argmax(after))
    return rid + 2 + pos if after[pos] else None


def live_runs(table: DecayingTable, lo: int, hi: int) -> list[tuple[int, int]]:
    """Maximal live runs inside ``[lo, hi]``, from a scan of the mask."""
    lo = max(lo, 0)
    hi = min(hi, table.storage.allocated - 1)
    if lo > hi:
        return []
    segment = table.storage.live_mask()[lo : hi + 1]
    if segment.all():
        return [(lo, hi)]
    idx = numpy.flatnonzero(segment)
    if idx.size == 0:
        return []
    gaps = numpy.flatnonzero(numpy.diff(idx) > 1)
    starts = numpy.concatenate(([0], gaps + 1))
    ends = numpy.concatenate((gaps, [idx.size - 1]))
    return [
        (int(idx[s]) + lo, int(idx[e]) + lo)
        for s, e in zip(starts.tolist(), ends.tolist())
    ]


def positive_rows_in(table: DecayingTable, lo: int, hi: int) -> Any:
    """Live rows with freshness > 0 inside ``[lo, hi]``, ascending."""
    hi = min(hi, table.storage.allocated - 1)
    lo = max(lo, 0)
    if lo > hi:
        return []
    live = table.storage.live_mask()
    freshness = table.storage.freshness_array()
    if hi - lo < core_table._SMALL_BATCH:
        return [rid for rid in range(lo, hi + 1) if live[rid] and freshness[rid] > 0.0]
    segment = live[lo : hi + 1] & (freshness[lo : hi + 1] > 0.0)
    return numpy.flatnonzero(segment) + lo


def _sync(table: DecayingTable, spots: ListSpots) -> None:
    spots.replace(
        run for lo, hi in spots.spans() for run in live_runs(table, lo, hi)
    )


# -- the fungi ------------------------------------------------------------


class ReferenceEGI(Fungus):
    """EGI, one span at a time."""

    name = "egi"

    def __init__(
        self,
        seeds_per_cycle: int = 1,
        decay_rate: float = 0.2,
        spread: bool = True,
        age_bias: int = 8,
    ) -> None:
        self.seeds_per_cycle = seeds_per_cycle
        self.decay_rate = decay_rate
        self.spread = spread
        self.age_bias = age_bias
        self.spots = ListSpots()

    def reset(self) -> None:
        self.spots = ListSpots()

    def on_evicted(self, rids: Sequence[int]) -> None:
        for rid in rids:
            self.spots.remove(rid)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        self.spots.remap(remap)

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        spots = self.spots
        if table.storage.tombstones:
            _sync(table, spots)
        for _ in range(self.seeds_per_cycle):
            seed = self._select_seed(table, rng)
            if seed is None:
                break
            if spots.add(seed):
                table.mark_infected(seed, self.name)
                report.seeded += 1
        if not spots:
            return report
        if self.spread:
            for lo, hi in spots.spans():
                prev_rid = prev_live(table, lo)
                if prev_rid is not None and not spots.covers(prev_rid):
                    spots.add(prev_rid)
                    table.mark_infected(prev_rid, self.name, origin="spread", source=lo)
                    report.spread += 1
                next_rid = next_live(table, hi)
                if next_rid is not None and not spots.covers(next_rid):
                    spots.add(next_rid)
                    table.mark_infected(next_rid, self.name, origin="spread", source=hi)
                    report.spread += 1
        parts = [positive_rows_in(table, lo, hi) for lo, hi in spots.spans()]
        if len(parts) > 1:
            rids = numpy.concatenate(
                [numpy.asarray(part, dtype=numpy.intp) for part in parts]
            )
        else:
            rids = parts[0]
        if len(rids):
            self._account(table.decay_many(rids, self.decay_rate, self.name), report)
        return report

    def _select_seed(self, table: DecayingTable, rng: random.Random) -> int | None:
        sample = table.sample_live(rng, self.age_bias)
        sample = [rid for rid in sample if not self.spots.covers(rid)]
        return min(sample) if sample else None


class _Vein:
    def __init__(self, seed: int) -> None:
        self.members = ListSpots([(seed, seed)])
        self.age = 0


class ReferenceBlueCheese(Fungus):
    """Blue Cheese, one span at a time."""

    name = "blue-cheese"

    def __init__(
        self,
        max_spots: int = 3,
        base_rate: float = 0.05,
        acceleration: float = 0.25,
        age_bias: int = 8,
    ) -> None:
        self.max_spots = max_spots
        self.base_rate = base_rate
        self.acceleration = acceleration
        self.age_bias = age_bias
        self.veins: list[_Vein] = []

    def reset(self) -> None:
        self.veins.clear()

    def on_evicted(self, rids: Sequence[int]) -> None:
        for rid in rids:
            for vein in self.veins:
                vein.members.remove(rid)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        for vein in self.veins:
            vein.members.remap(remap)

    def _covered_anywhere(self, rid: int) -> bool:
        return any(vein.members.covers(rid) for vein in self.veins)

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        if table.storage.tombstones:
            for vein in self.veins:
                _sync(table, vein.members)
            self.veins = [v for v in self.veins if v.members or v.age == 0]
        if len(self.veins) < self.max_spots:
            seed = self._select_seed(table, rng)
            if seed is not None:
                self.veins.append(_Vein(seed))
                table.mark_infected(seed, self.name)
                report.seeded += 1
        for vein in self.veins:
            if not vein.members:
                continue
            spans = vein.members.spans()
            left_edge, right_edge = spans[0][0], spans[-1][1]
            prev_rid = prev_live(table, left_edge)
            next_rid = next_live(table, right_edge)
            for frontier, edge in ((prev_rid, left_edge), (next_rid, right_edge)):
                if frontier is not None and not self._covered_anywhere(frontier):
                    vein.members.add(frontier)
                    table.mark_infected(frontier, self.name, origin="spread", source=edge)
                    report.spread += 1
            rate = min(1.0, self.base_rate * (1.0 + self.acceleration * vein.age))
            for lo, hi in vein.members.spans():
                rids = positive_rows_in(table, lo, hi)
                if len(rids):
                    self._account(table.decay_many(rids, rate, self.name), report)
            vein.age += 1
        return report

    def _select_seed(self, table: DecayingTable, rng: random.Random) -> int | None:
        sample = [
            rid
            for rid in table.sample_live(rng, self.age_bias)
            if not self._covered_anywhere(rid)
        ]
        return min(sample) if sample else None
