"""Deliberately broken variants of the system — the harness's proof
that it *can* fail.

A differential harness that never fires is worthless; these mutants
re-introduce the classes of bug the harness exists to catch, as
reversible monkeypatches. ``apply(name)`` installs one and returns an
undo callable; ``python -m repro.sim --mutant NAME`` and
``tests/sim/test_mutants.py`` both use them to demonstrate detection.
"""

from __future__ import annotations

from typing import Callable

from repro.core.table import DecayingTable
from repro.fungi.linear import LinearDecayFungus

Undo = Callable[[], None]


def _broken_tombstone_accounting() -> Undo:
    """Undo the exhausted-set bookkeeping of every eviction.

    Dead row ids linger in the exhausted set, so the exhausted-⊆-live
    invariant and the HealthReport exhausted count both break.
    """
    original = DecayingTable.evict

    def evict(self, rows, cause):  # pragma: no cover - mutant body
        exhausted = set(self._exhausted)
        original(self, rows, cause)
        self._exhausted |= exhausted

    DecayingTable.evict = evict

    def undo() -> None:
        DecayingTable.evict = original

    return undo


def _broken_linear_rate() -> Undo:
    """Linear decay silently loses twice the freshness it should.

    The oracle applies the configured rate; the first linear cycle
    diverges on every live row's ``f``.
    """
    original = LinearDecayFungus.cycle

    def cycle(self, table, rng):  # pragma: no cover - mutant body
        report = original(self, table, rng)
        for rid in list(table.live_rows()):
            if table.freshness(rid) > 0.0:
                self._decay(table, rid, self.rate, report)
        return report

    LinearDecayFungus.cycle = cycle

    def undo() -> None:
        LinearDecayFungus.cycle = original

    return undo


def _broken_consume() -> Undo:
    """CONSUME forgets to delete every other matched row.

    ``R − σ_P(R)`` leaves survivors behind: the consume diff and the
    row diff both fire.
    """
    from repro.query.executor import QueryEngine
    from repro.storage.rowset import RowSet

    original = QueryEngine._remove

    def _remove(self, table_name, victims, cause):  # pragma: no cover - mutant body
        if cause == "consume":
            victims = RowSet(rid for i, rid in enumerate(victims) if i % 2 == 0)
        return original(self, table_name, victims, cause)

    QueryEngine._remove = _remove

    def undo() -> None:
        QueryEngine._remove = original

    return undo


MUTANTS: dict[str, Callable[[], Undo]] = {
    "tombstone": _broken_tombstone_accounting,
    "linear-rate": _broken_linear_rate,
    "consume": _broken_consume,
}


def apply(name: str) -> Undo:
    """Install one named mutant; returns the undo callable."""
    try:
        factory = MUTANTS[name]
    except KeyError:
        raise ValueError(f"unknown mutant {name!r}; have {sorted(MUTANTS)}") from None
    return factory()
