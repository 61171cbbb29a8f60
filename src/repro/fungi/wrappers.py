"""Structural fungi: composition, predication, and the null control.

These cover the paper's "what to decay" axis and give experiments
their control arms:

* :class:`NullFungus` — decays nothing (the unbounded-growth control
  of experiment F1).
* :class:`PredicateFungus` — only rows matching an attribute predicate
  decay (e.g. rot the 404s, keep the 200s).
* :class:`CompositeFungus` — several fungi share one table, like a
  real cheese cave.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping, Sequence

from repro.core.fungus import DecayReport, Fungus
from repro.core.table import DecayingTable
from repro.errors import DecayError


class NullFungus(Fungus):
    """The control: no decay at all (the data-hoarder's database)."""

    name = "null"

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        return DecayReport(self.name, table.clock.now)


class PredicateFungus(Fungus):
    """Constant-rate decay of only the rows matching ``predicate``.

    ``predicate`` receives the row's attribute dict (no ``t``/``f``).
    This is the "what to decay" axis: age the error logs, keep the
    audit trail.
    """

    def __init__(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        rate: float,
        name: str = "predicate",
    ) -> None:
        if not (0.0 < rate <= 1.0):
            raise DecayError(f"rate must be in (0, 1], got {rate}")
        self.predicate = predicate
        self.rate = rate
        self.name = name

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        report = DecayReport(self.name, table.clock.now)
        matching = [
            rid
            for rid in table.live_positive_rows()
            if self.predicate(table.attributes_of(rid))
        ]
        if matching:
            self._account(table.decay_many(matching, self.rate, self.name), report)
        return report


class CompositeFungus(Fungus):
    """Run several fungi in sequence within one cycle."""

    def __init__(self, fungi: list[Fungus]) -> None:
        if not fungi:
            raise DecayError("CompositeFungus needs at least one fungus")
        self.fungi = list(fungi)
        self.name = "+".join(f.name for f in fungi)

    def cycle(self, table: DecayingTable, rng: random.Random) -> DecayReport:
        merged: DecayReport | None = None
        for fungus in self.fungi:
            report = fungus.cycle(table, rng)
            merged = report if merged is None else merged.merge(report)
        assert merged is not None
        merged.fungus = self.name
        return merged

    def reset(self) -> None:
        for fungus in self.fungi:
            fungus.reset()

    def on_evicted(self, rids: Sequence[int]) -> None:
        for fungus in self.fungi:
            fungus.on_evicted(rids)

    def on_compacted(self, remap: Mapping[int, int]) -> None:
        for fungus in self.fungi:
            fungus.on_compacted(remap)
