"""Death provenance records: the vocabulary of rot forensics.

Every tuple that enters a decaying relation gets a *biography*
(:class:`TupleLife`): a stable forensic id (``fid``, the per-table
insertion ordinal — unlike a rid it survives compaction and
checkpoint restores), its infection history, and a bounded ring
buffer of its freshness trajectory. When the tuple leaves R, the
biography is closed into a :class:`DeathRecord` stating *why*:

``evicted``
    Law 1 — the fungus exhausted its freshness (or a manual evict).
``consumed``
    Law 2 — a ``CONSUME SELECT`` carried it into an answer set; the
    record stores the consuming query text verbatim.
``truncated``
    The whole relation was dropped from under it.
``restored-over``
    A checkpoint was loaded over a live database and the tuple was
    not part of the restored state.

:class:`InfectionEvent` is the lineage edge: who infected this tuple
(``source_fid``), by seeding or by spreading — the chain the
``why()`` query walks back to the original seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Every cause a DeathRecord may carry.
CAUSES = ("evicted", "consumed", "truncated", "restored-over")

#: Eviction-reason label (TupleEvictedBatch.reason) -> forensic cause.
REASON_TO_CAUSE = {
    "decay": "evicted",
    "manual": "evicted",
    "external": "evicted",
    "consume": "consumed",
    "truncate": "truncated",
    "restored-over": "restored-over",
}


@dataclass(frozen=True)
class InfectionEvent:
    """One infection of one tuple: the lineage edge.

    ``origin`` is ``"seed"`` or ``"spread"``; for spread infections
    ``source_fid`` names the infecting neighbour's forensic id (None
    when the neighbour had no biography, e.g. across an absorbing
    restore boundary).
    """

    fungus: str
    origin: str
    source_fid: int | None
    tick: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "fungus": self.fungus,
            "origin": self.origin,
            "source_fid": self.source_fid,
            "tick": self.tick,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InfectionEvent":
        return cls(
            fungus=str(data["fungus"]),
            origin=str(data["origin"]),
            source_fid=data.get("source_fid"),
            tick=float(data["tick"]),
        )


@dataclass
class TupleLife:
    """The live biography of one tuple, keyed by forensic id."""

    fid: int
    table: str
    rid: int
    born_tick: float | None
    infections: list[InfectionEvent] = field(default_factory=list)
    trajectory: deque = field(default_factory=lambda: deque(maxlen=16))
    pending_query: str | None = None  # set by a consume batch, read at death

    @property
    def last_infection(self) -> InfectionEvent | None:
        return self.infections[-1] if self.infections else None

    def record_freshness(self, tick: float, freshness: float) -> None:
        self.trajectory.append((tick, freshness))

    def to_dict(self) -> dict[str, Any]:
        return {
            "fid": self.fid,
            "born_tick": self.born_tick,
            "infections": [i.to_dict() for i in self.infections],
            "trajectory": [list(point) for point in self.trajectory],
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], table: str, rid: int, trajectory_len: int
    ) -> "TupleLife":
        life = cls(
            fid=int(data["fid"]),
            table=table,
            rid=rid,
            born_tick=data.get("born_tick"),
            infections=[InfectionEvent.from_dict(i) for i in data.get("infections", ())],
            trajectory=deque(maxlen=trajectory_len),
        )
        for tick, f in data.get("trajectory", ()):
            life.trajectory.append((float(tick), float(f)))
        return life


@dataclass(frozen=True)
class DeathRecord:
    """Why one tuple left R — the closed biography.

    ``fungus``/``origin``/``infected_by`` summarise the *last*
    infection (the one that finished the job); the full history is in
    ``infections``. ``query`` is the consuming SQL text for Law-2
    deaths. ``rid`` is the row id *at death* and is not stable;
    ``fid`` is.
    """

    fid: int
    table: str
    rid: int
    cause: str
    born_tick: float | None
    death_tick: float
    fungus: str | None = None
    origin: str | None = None
    infected_by: int | None = None
    infections: tuple = ()
    trajectory: tuple = ()
    query: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "fid": self.fid,
            "rid": self.rid,
            "cause": self.cause,
            "born_tick": self.born_tick,
            "death_tick": self.death_tick,
            "fungus": self.fungus,
            "origin": self.origin,
            "infected_by": self.infected_by,
            "infections": [i.to_dict() for i in self.infections],
            "trajectory": [list(point) for point in self.trajectory],
            "query": self.query,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], table: str) -> "DeathRecord":
        return cls(
            fid=int(data["fid"]),
            table=table,
            rid=int(data["rid"]),
            cause=str(data["cause"]),
            born_tick=data.get("born_tick"),
            death_tick=float(data["death_tick"]),
            fungus=data.get("fungus"),
            origin=data.get("origin"),
            infected_by=data.get("infected_by"),
            infections=tuple(
                InfectionEvent.from_dict(i) for i in data.get("infections", ())
            ),
            trajectory=tuple(
                (float(t), float(f)) for t, f in data.get("trajectory", ())
            ),
            query=data.get("query"),
        )

    @classmethod
    def close(
        cls,
        life: TupleLife,
        cause: str,
        death_tick: float,
        query: str | None = None,
    ) -> "DeathRecord":
        """Close a live biography into its death record."""
        last = life.last_infection
        return cls(
            fid=life.fid,
            table=life.table,
            rid=life.rid,
            cause=cause,
            born_tick=life.born_tick,
            death_tick=death_tick,
            fungus=last.fungus if last else None,
            origin=last.origin if last else None,
            infected_by=last.source_fid if last else None,
            infections=tuple(life.infections),
            trajectory=tuple(life.trajectory),
            query=query if query is not None else life.pending_query,
        )
