"""The bounded, checkpoint-surviving infection-lineage store.

:class:`LineageStore` owns every biography (:class:`TupleLife`) and
every closed :class:`DeathRecord`, keyed by per-table forensic ids
(``fid`` — the insertion ordinal, stable across compaction and
restores, unlike rids). It answers the three forensic questions:

* :meth:`why` / :meth:`resolve_chain` — the full infection chain of
  one tuple, walked ``source_fid`` by ``source_fid`` back to the
  original seed event (or the tuple's insertion, for deaths that
  never involved a fungus);
* :meth:`spots` — rot-spot reconstruction: fungus deaths grouped
  into contiguous insertion ranges ("Blue Cheese" veins) with birth
  and death ticks and a growth curve;
* the alert log — every rule fired/resolved, with tick and value.

Bounds: death records are FIFO-capped per table (``max_deaths``);
trajectories are ring buffers (``trajectory_len``); the alert log is
capped at ``max_alerts``. A chain that walks into an expired record
terminates with the explicit ``"expired"`` terminus instead of
guessing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import ObsError
from repro.obs.forensics.records import (
    CAUSES,
    REASON_TO_CAUSE,
    DeathRecord,
    InfectionEvent,
    TupleLife,
)

#: Chain termini: how a lineage walk ended.
TERMINUS_SEED = "seed"          # reached the original seed infection
TERMINUS_INSERTED = "inserted"  # no infection at all: died uninfected
TERMINUS_EXPIRED = "expired"    # ancestor record aged out of the bound
TERMINUS_TRUNCATED = "truncated-lineage"  # spread edge without a source fid
TERMINUS_CYCLE = "cycle"        # defensive: a lineage loop (a bug)

COMPLETE_TERMINI = (TERMINUS_SEED, TERMINUS_INSERTED)


@dataclass(frozen=True)
class ChainLink:
    """One hop of a lineage walk: a tuple and the infection that hit it."""

    fid: int
    alive: bool
    infection: InfectionEvent | None
    record: DeathRecord | None  # None while the tuple still lives
    life: TupleLife | None = None


@dataclass(frozen=True)
class Chain:
    """A resolved lineage: subject-first links plus how the walk ended."""

    table: str
    links: tuple
    terminus: str

    @property
    def complete(self) -> bool:
        """True when the chain reaches a seed event or an uninfected birth."""
        return self.terminus in COMPLETE_TERMINI


@dataclass(frozen=True)
class RotSpot:
    """A contiguous run of fungus deaths — one reconstructed vein."""

    table: str
    fid_lo: int
    fid_hi: int
    size: int
    birth_tick: float   # earliest infection among members (vein born)
    first_death: float
    last_death: float
    fungi: tuple
    growth: tuple  # (tick, cumulative deaths) pairs, tick-ascending


@dataclass(frozen=True)
class AlertLogEntry:
    """One alert transition: a rule fired or resolved for a table."""

    tick: float
    table: str
    rule: str
    action: str  # "fired" | "resolved"
    value: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "tick": self.tick,
            "table": self.table,
            "rule": self.rule,
            "action": self.action,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AlertLogEntry":
        return cls(
            tick=float(data["tick"]),
            table=str(data["table"]),
            rule=str(data["rule"]),
            action=str(data["action"]),
            value=float(data.get("value", 0.0)),
        )


class LineageStore:
    """Biographies, death records, and the alert log for one database."""

    def __init__(
        self,
        trajectory_len: int = 16,
        max_deaths: int = 10_000,
        max_alerts: int = 1_000,
    ) -> None:
        if trajectory_len < 1:
            raise ObsError(f"trajectory_len must be >= 1, got {trajectory_len}")
        if max_deaths < 1:
            raise ObsError(f"max_deaths must be >= 1, got {max_deaths}")
        self.trajectory_len = trajectory_len
        self.max_deaths = max_deaths
        self.max_alerts = max_alerts
        self._lives: dict[str, dict[int, TupleLife]] = {}
        self._deaths: dict[str, OrderedDict[int, DeathRecord]] = {}
        self._next_fid: dict[str, int] = {}
        self.alert_log: list[AlertLogEntry] = []
        self.deaths_recorded = 0  # lifetime total, unaffected by the bound

    # ------------------------------------------------------------------
    # biography lifecycle (driven by the collector)
    # ------------------------------------------------------------------

    def born(self, table: str, rid: int, tick: float | None) -> TupleLife:
        """Open a biography for a freshly inserted tuple."""
        fid = self._next_fid.get(table, 0)
        self._next_fid[table] = fid + 1
        life = TupleLife(fid=fid, table=table, rid=rid, born_tick=tick)
        if tick is not None:
            life.trajectory = self._ring()
            life.record_freshness(tick, 1.0)
        else:
            life.trajectory = self._ring()
        self._lives.setdefault(table, {})[rid] = life
        return life

    def _ring(self):
        from collections import deque

        return deque(maxlen=self.trajectory_len)

    def life(self, table: str, rid: int) -> TupleLife | None:
        """The live biography of ``rid`` (None when untracked)."""
        return self._lives.get(table, {}).get(rid)

    def _life_or_adopt(self, table: str, rid: int) -> TupleLife:
        """Adopt rows that predate forensics being enabled."""
        life = self.life(table, rid)
        if life is None:
            life = self.born(table, rid, tick=None)
        return life

    def infected(
        self,
        table: str,
        rid: int,
        fungus: str,
        origin: str,
        source_rid: int | None,
        tick: float,
    ) -> None:
        """Record one infection edge on a live biography."""
        life = self._life_or_adopt(table, rid)
        source_fid = None
        if source_rid is not None:
            # a spreading source is necessarily live; adopt it if it
            # predates forensics so the chain stays resolvable
            source_fid = self._life_or_adopt(table, source_rid).fid
        life.infections.append(InfectionEvent(fungus, origin, source_fid, tick))

    def decayed(self, table: str, rid: int, tick: float, freshness: float) -> None:
        """Append one point to the freshness trajectory ring."""
        self._life_or_adopt(table, rid).record_freshness(tick, freshness)

    def note_consume(self, table: str, rid: int, query: str | None) -> None:
        """Stash the consuming query text until the eviction lands."""
        self._life_or_adopt(table, rid).pending_query = query

    def died(
        self,
        table: str,
        rid: int,
        reason: str,
        tick: float,
        query: str | None = None,
    ) -> DeathRecord:
        """Close ``rid``'s biography; returns the new death record."""
        life = self._lives.get(table, {}).pop(rid, None)
        if life is None:
            life = TupleLife(
                fid=self._next_fid.get(table, 0), table=table, rid=rid, born_tick=None
            )
            self._next_fid[table] = life.fid + 1
        cause = REASON_TO_CAUSE.get(reason, "evicted")
        record = DeathRecord.close(life, cause, tick, query=query)
        self._remember(record)
        return record

    def _remember(self, record: DeathRecord) -> None:
        deaths = self._deaths.setdefault(record.table, OrderedDict())
        deaths[record.fid] = record
        self.deaths_recorded += 1
        while len(deaths) > self.max_deaths:
            deaths.popitem(last=False)

    def record_restored_over(
        self,
        table: str,
        rid: int,
        tick: float,
        old_life: TupleLife | None = None,
    ) -> DeathRecord:
        """Record a tuple a checkpoint restore wiped out of a live db.

        The row never lived in *this* store, so it gets a fresh fid
        past the restored watermark; infection source fids are nulled
        (the old session's fid namespace is gone), which the audit
        accepts as a legal truncated lineage for this cause.
        """
        fid = self._next_fid.get(table, 0)
        self._next_fid[table] = fid + 1
        infections = tuple(
            InfectionEvent(i.fungus, i.origin, None, i.tick)
            for i in (old_life.infections if old_life is not None else ())
        )
        last = infections[-1] if infections else None
        record = DeathRecord(
            fid=fid,
            table=table,
            rid=rid,
            cause="restored-over",
            born_tick=old_life.born_tick if old_life is not None else None,
            death_tick=tick,
            fungus=last.fungus if last else None,
            origin=last.origin if last else None,
            infected_by=None,
            infections=infections,
            trajectory=tuple(old_life.trajectory) if old_life is not None else (),
            query=None,
        )
        self._remember(record)
        return record

    def compacted(self, table: str, remap: Mapping[int, int]) -> None:
        """Follow live biographies across a compaction renumbering."""
        lives = self._lives.get(table)
        if not lives:
            return
        moved: dict[int, TupleLife] = {}
        for old_rid, life in lives.items():
            new_rid = remap.get(old_rid)
            if new_rid is None:
                continue  # the row is gone; its death was recorded separately
            life.rid = new_rid
            moved[new_rid] = life
        self._lives[table] = moved

    def log_alert(self, entry: AlertLogEntry) -> None:
        """Append one alert transition (bounded FIFO)."""
        self.alert_log.append(entry)
        if len(self.alert_log) > self.max_alerts:
            del self.alert_log[: len(self.alert_log) - self.max_alerts]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def tables(self) -> list[str]:
        """Every table with any forensic state, sorted."""
        return sorted(set(self._lives) | set(self._deaths))

    def deaths(self, table: str) -> list[DeathRecord]:
        """Retained death records for one table, oldest first."""
        return list(self._deaths.get(table, {}).values())

    def death_by_fid(self, table: str, fid: int) -> DeathRecord | None:
        return self._deaths.get(table, {}).get(fid)

    def life_by_fid(self, table: str, fid: int) -> TupleLife | None:
        for life in self._lives.get(table, {}).values():
            if life.fid == fid:
                return life
        return None

    def find_subject(
        self, table: str, ref: int, by_fid: bool = False
    ) -> TupleLife | DeathRecord | None:
        """Locate a tuple by live rid (default) or forensic id.

        Falls back, for a rid with no live biography, to the most
        recent death record whose rid-at-death matches — the natural
        shell question "why did row 42 die?".
        """
        if by_fid:
            return self.life_by_fid(table, ref) or self.death_by_fid(table, ref)
        life = self.life(table, ref)
        if life is not None:
            return life
        for record in reversed(self._deaths.get(table, OrderedDict()).values()):
            if record.rid == ref:
                return record
        return None

    # ------------------------------------------------------------------
    # why(): chain resolution
    # ------------------------------------------------------------------

    def resolve_chain(
        self, table: str, subject: TupleLife | DeathRecord
    ) -> Chain:
        """Walk the infection lineage of ``subject`` back to its seed."""
        links: list[ChainLink] = []
        seen: set[int] = set()
        current: TupleLife | DeathRecord | None = subject
        while current is not None:
            if current.fid in seen:
                links.append(self._link(current))
                return Chain(table, tuple(links), TERMINUS_CYCLE)
            seen.add(current.fid)
            link = self._link(current)
            links.append(link)
            infection = link.infection
            if infection is None:
                return Chain(table, tuple(links), TERMINUS_INSERTED)
            if infection.origin == "seed":
                return Chain(table, tuple(links), TERMINUS_SEED)
            if infection.source_fid is None:
                return Chain(table, tuple(links), TERMINUS_TRUNCATED)
            current = self.life_by_fid(table, infection.source_fid)
            if current is None:
                current = self.death_by_fid(table, infection.source_fid)
            if current is None:
                return Chain(table, tuple(links), TERMINUS_EXPIRED)
        return Chain(table, tuple(links), TERMINUS_EXPIRED)  # pragma: no cover

    @staticmethod
    def _link(subject: TupleLife | DeathRecord) -> ChainLink:
        if isinstance(subject, TupleLife):
            return ChainLink(
                fid=subject.fid,
                alive=True,
                infection=subject.last_infection,
                record=None,
                life=subject,
            )
        infection = subject.infections[-1] if subject.infections else None
        return ChainLink(
            fid=subject.fid, alive=False, infection=infection, record=subject
        )

    def why(self, table: str, ref: int, by_fid: bool = False) -> Chain | None:
        """The lineage chain for one tuple reference (None if unknown)."""
        subject = self.find_subject(table, ref, by_fid=by_fid)
        if subject is None:
            return None
        return self.resolve_chain(table, subject)

    # ------------------------------------------------------------------
    # rot-spot reconstruction
    # ------------------------------------------------------------------

    def spots(self, table: str, max_gap: int = 1) -> list[RotSpot]:
        """Group fungus deaths into contiguous insertion-range veins.

        Two dead fids belong to the same spot when their insertion
        ordinals differ by at most ``max_gap`` — EGI's bi-directional
        spread produces exactly such runs ("Blue Cheese" veins).
        """
        members = sorted(
            (record.fid, record)
            for record in self.deaths(table)
            if record.cause == "evicted" and record.fungus is not None
        )
        spots: list[RotSpot] = []
        run: list[DeathRecord] = []
        for fid, record in members:
            if run and fid - run[-1].fid > max_gap:
                spots.append(self._spot_of(table, run))
                run = []
            run.append(record)
        if run:
            spots.append(self._spot_of(table, run))
        return spots

    @staticmethod
    def _spot_of(table: str, run: Sequence[DeathRecord]) -> RotSpot:
        death_ticks = sorted(r.death_tick for r in run)
        infection_ticks = [
            i.tick for r in run for i in r.infections
        ] or death_ticks
        growth: list[tuple[float, int]] = []
        for tick in death_ticks:
            if growth and growth[-1][0] == tick:
                growth[-1] = (tick, growth[-1][1] + 1)
            else:
                growth.append((tick, (growth[-1][1] if growth else 0) + 1))
        return RotSpot(
            table=table,
            fid_lo=run[0].fid,
            fid_hi=run[-1].fid,
            size=len(run),
            birth_tick=min(infection_ticks),
            first_death=death_ticks[0],
            last_death=death_ticks[-1],
            fungi=tuple(sorted({r.fungus for r in run if r.fungus})),
            growth=tuple(growth),
        )

    # ------------------------------------------------------------------
    # audit (the CI forensics-replay contract)
    # ------------------------------------------------------------------

    def audit(self) -> list[str]:
        """Every retained death must have a known cause and a complete chain.

        Returns human-readable problems; empty means the store honours
        the forensic contract: no unknown causes, and every record's
        lineage resolves to a seed event or an uninfected insertion
        (``restored-over`` records are allowed a truncated lineage —
        their ancestry lived before the restore boundary).
        """
        problems: list[str] = []
        for table in self.tables():
            for record in self.deaths(table):
                if record.cause not in CAUSES:
                    problems.append(
                        f"{table} fid {record.fid}: unknown death cause "
                        f"{record.cause!r}"
                    )
                chain = self.resolve_chain(table, record)
                if chain.complete:
                    continue
                if (
                    record.cause == "restored-over"
                    and chain.terminus == TERMINUS_TRUNCATED
                ):
                    continue
                problems.append(
                    f"{table} fid {record.fid} ({record.cause}): lineage "
                    f"incomplete — terminus {chain.terminus!r} after "
                    f"{len(chain.links)} link(s)"
                )
        return problems

    # ------------------------------------------------------------------
    # serde (checkpoint persistence)
    # ------------------------------------------------------------------

    def to_dict(self, live_order: Mapping[str, Iterable[int]]) -> dict[str, Any]:
        """Serialise the whole store.

        ``live_order`` maps table name -> live rids in insertion
        order (the checkpoint's row order); biographies are saved as
        an *ordinal-ordered list* because rids are renumbered on
        restore — the collector rebinds them positionally.
        """
        tables: dict[str, Any] = {}
        names = set(self._lives) | set(self._deaths) | set(self._next_fid)
        for table in sorted(names):
            lives = self._lives.get(table, {})
            order = list(live_order.get(table, lives.keys()))
            tables[table] = {
                "next_fid": self._next_fid.get(table, 0),
                "lives": [
                    lives[rid].to_dict() for rid in order if rid in lives
                ],
                "deaths": [r.to_dict() for r in self.deaths(table)],
            }
        return {
            "version": 1,
            "trajectory_len": self.trajectory_len,
            "max_deaths": self.max_deaths,
            "max_alerts": self.max_alerts,
            "deaths_recorded": self.deaths_recorded,
            "tables": tables,
            "alert_log": [entry.to_dict() for entry in self.alert_log],
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], bind_lives: bool = False
    ) -> tuple["LineageStore", dict[str, list[dict]]]:
        """Rebuild a store; returns ``(store, pending_lives)``.

        ``pending_lives`` maps table -> the saved biography dicts in
        live-row ordinal order. With ``bind_lives=True`` (offline
        inspection) they are additionally bound into the store under
        their recorded save-time ordinals; the live restore path
        leaves them pending and rebinds them to real rids when the
        ``RestoreCompleted`` event announces the replayed rows.
        """
        if data.get("version") != 1:
            raise ObsError(f"unknown forensics state version {data.get('version')!r}")
        store = cls(
            trajectory_len=int(data.get("trajectory_len", 16)),
            max_deaths=int(data.get("max_deaths", 10_000)),
            max_alerts=int(data.get("max_alerts", 1_000)),
        )
        store.deaths_recorded = int(data.get("deaths_recorded", 0))
        pending: dict[str, list[dict]] = {}
        for table, tdata in data.get("tables", {}).items():
            store._next_fid[table] = int(tdata.get("next_fid", 0))
            for rdata in tdata.get("deaths", ()):
                record = DeathRecord.from_dict(rdata, table)
                store._deaths.setdefault(table, OrderedDict())[record.fid] = record
            pending[table] = list(tdata.get("lives", ()))
            if bind_lives:
                for ordinal, ldata in enumerate(pending[table]):
                    life = TupleLife.from_dict(
                        ldata, table, rid=ordinal, trajectory_len=store.trajectory_len
                    )
                    store._lives.setdefault(table, {})[ordinal] = life
        store.alert_log = [
            AlertLogEntry.from_dict(entry) for entry in data.get("alert_log", ())
        ]
        return store, pending

    def rebind_restored(
        self, table: str, rids: Sequence[int], life_dicts: Sequence[dict]
    ) -> int:
        """Rebind saved biographies to the rids a restore replayed.

        The replayed insert batch opened fresh (wrong)
        biographies for ``rids``; this replaces them positionally
        with the persisted ones and rolls the fid counter back to the
        persisted watermark, so no DeathRecords and no fid drift come
        out of a checkpoint restore (a replayed row is not a death
        and not a birth).
        """
        lives = self._lives.setdefault(table, {})
        bound = 0
        for ordinal, rid in enumerate(rids):
            if ordinal >= len(life_dicts):
                break
            lives[rid] = TupleLife.from_dict(
                life_dicts[ordinal], table, rid=rid, trajectory_len=self.trajectory_len
            )
            bound += 1
        # the fresh biographies consumed fids past the persisted
        # watermark; restore them so fids stay == insertion ordinals
        watermark = max(
            [life.fid + 1 for life in lives.values()]
            + [fid + 1 for fid in self._deaths.get(table, {})]
            + [0]
        )
        self._next_fid[table] = watermark
        return bound
