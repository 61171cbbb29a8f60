"""Database health: the paper's "optimal health condition", measured.

"The database is kept in optimal health condition if you regularly can
turn rotting portions into summaries for later consumption." A
:class:`HealthReport` quantifies the rot state of one decaying table:

* freshness statistics and band counts (FRESH/STALE/ROTTEN);
* the *edible fraction* — the Blue Cheese test (share of the extent
  that is not ROTTEN);
* **rot spots** — contiguous runs of live rows already in the ROTTEN
  band (the soft veins); and
* **holes** — contiguous tombstoned insertion ranges (veins that were
  cut out), which is what "removing complete insertion ranges" looks
  like physically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.freshness import ROTTEN_THRESHOLD, FreshnessBand
from repro.core.table import DecayingTable
from repro.storage.vector import numpy


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time rot metrics for one table."""

    table: str
    tick: float
    extent: int
    allocated: int
    tombstones: int
    exhausted: int
    pinned: int
    mean_freshness: float | None
    min_freshness: float | None
    fresh_count: int
    stale_count: int
    rotten_count: int
    rot_spots: tuple[tuple[int, int], ...]
    holes: tuple[tuple[int, int], ...]

    @property
    def edible_fraction(self) -> float:
        """Share of the extent outside the ROTTEN band (1.0 when empty)."""
        if self.extent == 0:
            return 1.0
        return 1.0 - self.rotten_count / self.extent

    @property
    def largest_rot_spot(self) -> int:
        """Size of the biggest contiguous rotten run (0 if none)."""
        return max((stop - start for start, stop in self.rot_spots), default=0)

    @property
    def largest_hole(self) -> int:
        """Size of the biggest tombstoned insertion range (0 if none)."""
        return max((stop - start for start, stop in self.holes), default=0)

    def describe(self) -> str:
        """One-line human-readable summary."""
        mean = f"{self.mean_freshness:.3f}" if self.mean_freshness is not None else "n/a"
        return (
            f"{self.table}@t={self.tick:g}: extent={self.extent} "
            f"fresh/stale/rotten={self.fresh_count}/{self.stale_count}/{self.rotten_count} "
            f"mean_f={mean} edible={self.edible_fraction:.1%} "
            f"spots={len(self.rot_spots)} holes={len(self.holes)}"
        )


def _true_runs(flags: Any) -> list[tuple[int, int]]:
    """Maximal runs of True in a boolean array, as ``[start, stop)`` pairs."""
    padded = numpy.concatenate(([False], flags, [False]))
    # every run opens and closes with one flip: edges alternate start, stop
    edges = numpy.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def measure_health(table: DecayingTable) -> HealthReport:
    """Compute a :class:`HealthReport` for ``table`` right now.

    Everything is read off the freshness array and the live mask. Every
    field equals what a per-row walk (``band_of`` per live row, run
    tracking by hand) reports, except ``mean_freshness``, which numpy
    sums pairwise: within 1e-12 relative of the left-to-right sum.
    """
    storage = table.storage
    live = storage.live_mask()
    rids = numpy.flatnonzero(live)
    freshness = storage.freshness_array()[rids]
    bands = table.band_counts()
    # a rot spot is a run in the *live* sequence: tombstones between two
    # rotten rows do not split it, and it spans first rid to last rid + 1
    rot_spots = tuple(
        (int(rids[start]), int(rids[stop - 1]) + 1)
        for start, stop in _true_runs(freshness < ROTTEN_THRESHOLD)
    )
    return HealthReport(
        table=table.name,
        tick=table.clock.now,
        extent=len(table),
        allocated=storage.allocated,
        tombstones=storage.tombstones,
        exhausted=table.exhausted_count,
        pinned=table.pinned_count,
        mean_freshness=float(freshness.mean()) if rids.size else None,
        min_freshness=float(freshness.min()) if rids.size else None,
        fresh_count=bands[FreshnessBand.FRESH],
        stale_count=bands[FreshnessBand.STALE],
        rotten_count=bands[FreshnessBand.ROTTEN],
        rot_spots=rot_spots,
        holes=tuple(_true_runs(~live)),
    )
