"""Rot forensics: death provenance, infection lineage, rot alerts.

The paper's fungi make data *disappear*; this package answers the
operator's question when it does: **why did that tuple die?** Enable
it on a database and every tuple that leaves a relation closes into a
:class:`~repro.obs.forensics.records.DeathRecord` — cause, fungus,
seed-vs-spread, infecting neighbour, freshness trajectory, consuming
query — kept in a bounded, checkpoint-surviving
:class:`~repro.obs.forensics.store.LineageStore`::

    db = FungusDB(seed=7)
    db.create_table("readings", schema, fungus=EGIFungus())
    forensics = db.enable_forensics(rules=["eviction_rate > 2 for 5"])
    db.tick(200)
    print(forensics.why_text("readings", 42))   # ASCII lineage tree
    print(forensics.spots_text("readings"))      # Blue Cheese veins
    print(forensics.alerts_text())               # firing rules + log

The :class:`Forensics` facade wires three parts onto the event bus:
the :class:`~repro.obs.forensics.collector.ForensicsCollector`
(events → biographies → death records), the
:class:`~repro.obs.forensics.alerts.AlertEngine` (declarative
rot-rate rules on the logical clock), and the store itself.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.events import DeathRecorded
from repro.errors import ObsError
from repro.obs.forensics.alerts import AlertEngine, AlertRule, SIGNALS
from repro.obs.forensics.collector import ForensicsCollector
from repro.obs.forensics.records import (
    CAUSES,
    DeathRecord,
    InfectionEvent,
    TupleLife,
)
from repro.obs.forensics.render import (
    render_active_alerts,
    render_alert_log,
    render_chain,
    render_spots,
)
from repro.obs.forensics.store import (
    AlertLogEntry,
    Chain,
    LineageStore,
    RotSpot,
)

FORENSICS_VERSION = 1

#: A sensible starter rule set (the interactive shell installs these).
DEFAULT_RULES = (
    "eviction_rate > 2 for 5",
    "extent_half_life < 10 for 2",
    "consume_evict_ratio < 0.1 for 20",
)


class Forensics:
    """The attached forensics layer of one :class:`FungusDB`."""

    def __init__(
        self,
        db: Any,
        trajectory_len: int = 16,
        max_deaths: int = 10_000,
        max_alerts: int = 1_000,
        rules: Iterable[str] = (),
        store: LineageStore | None = None,
        pending: Mapping[str, list] | None = None,
    ) -> None:
        self.db = db
        self.store = store if store is not None else LineageStore(
            trajectory_len=trajectory_len,
            max_deaths=max_deaths,
            max_alerts=max_alerts,
        )
        self.collector = ForensicsCollector(self.store)
        if pending:
            self.collector.stage_restore(dict(pending))
        self.engine = AlertEngine(self._probe, self._log_transition)
        for rule in rules:
            self.engine.add_rule(rule)
        self.collector.attach(db)
        self.engine.attach(db.bus)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _probe(self, table: str) -> tuple[int, int] | None:
        decaying = self.db.tables.get(table)
        if decaying is None:
            return None
        return len(decaying), decaying.exhausted_count

    def _log_transition(
        self, tick: float, table: str, rule: str, action: str, value: float
    ) -> None:
        self.store.log_alert(AlertLogEntry(tick, table, rule, action, value))

    def close(self) -> None:
        """Detach from the bus; the store keeps its records."""
        self.collector.detach()
        self.engine.detach()
        if getattr(self.db, "forensics", None) is self:
            self.db.forensics = None

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------

    def add_rule(self, text: str) -> AlertRule:
        """Install one declarative alert rule."""
        return self.engine.add_rule(text)

    def remove_rule(self, text: str) -> bool:
        """Drop a rule by its text; returns True when found."""
        return self.engine.remove_rule(text)

    @property
    def rules(self) -> list[AlertRule]:
        return list(self.engine.rules)

    # ------------------------------------------------------------------
    # the forensic questions
    # ------------------------------------------------------------------

    def why(self, table: str, ref: int, by_fid: bool = False) -> Chain | None:
        """The infection chain of one tuple (live rid or forensic id)."""
        return self.store.why(table, ref, by_fid=by_fid)

    def why_text(self, table: str, ref: int, by_fid: bool = False) -> str:
        """The ``why`` answer rendered as an ASCII lineage tree."""
        chain = self.why(table, ref, by_fid=by_fid)
        if chain is None:
            kind = "fid" if by_fid else "rid"
            return f"no forensic record for {table!r} {kind} {ref}"
        return render_chain(chain, ref, by_fid=by_fid)

    def spots(self, table: str, max_gap: int = 1) -> list[RotSpot]:
        """Reconstructed contiguous rot spots ("Blue Cheese" veins)."""
        return self.store.spots(table, max_gap=max_gap)

    def spots_text(self, table: str, max_gap: int = 1) -> str:
        return render_spots(table, self.spots(table, max_gap=max_gap))

    def active_alerts(self) -> list[tuple[str, str, float]]:
        """Currently firing ``(table, rule, value)`` triples."""
        return self.engine.active()

    def alerts_text(self, log_limit: int = 20) -> str:
        """Firing alerts plus the recent transition log."""
        return "\n".join(
            (
                render_active_alerts(self.active_alerts()),
                render_alert_log(self.store.alert_log, limit=log_limit),
            )
        )

    def deaths(self, table: str) -> list[DeathRecord]:
        """Retained death records for one table, oldest first."""
        return self.store.deaths(table)

    def audit(self) -> list[str]:
        """Forensic-contract violations (empty = every death accounted)."""
        return self.store.audit()

    # ------------------------------------------------------------------
    # restore-over + persistence
    # ------------------------------------------------------------------

    def record_restored_over(self, old_db: Any) -> int:
        """Close out a live database a checkpoint is restored over.

        Every live row of ``old_db`` gets a ``restored-over``
        DeathRecord *in this store* (fresh fids past the restored
        watermark; infection sources nulled — their fid namespace died
        with the old session). Returns the number recorded.
        """
        tick = self.db.clock.now
        old_forensics = getattr(old_db, "forensics", None)
        recorded = 0
        for name in sorted(old_db.tables):
            table = old_db.tables[name]
            for rid in table.live_rows():
                old_life = (
                    old_forensics.store.life(name, rid)
                    if old_forensics is not None
                    else None
                )
                record = self.store.record_restored_over(name, rid, tick, old_life)
                self.db.bus.publish(
                    DeathRecorded(
                        name, tick, rid, record.cause, fungus=record.fungus
                    )
                )
                recorded += 1
        return recorded

    def to_dict(self) -> dict[str, Any]:
        """Serialise for checkpointing (store + alert rules)."""
        live_order = {
            name: list(table.live_rows()) for name, table in self.db.tables.items()
        }
        return {
            "version": FORENSICS_VERSION,
            "rules": [rule.text for rule in self.engine.rules],
            "store": self.store.to_dict(live_order),
        }

    @classmethod
    def from_saved(cls, db: Any, data: Mapping[str, Any]) -> "Forensics":
        """Attach to ``db`` from checkpointed state, *before* row replay.

        The saved biographies stay pending until each table's
        ``RestoreCompleted`` event rebinds them to the replayed rows.
        """
        if data.get("version") != FORENSICS_VERSION:
            raise ObsError(
                f"unknown forensics checkpoint version {data.get('version')!r}"
            )
        store, pending = LineageStore.from_dict(data["store"])
        return cls(db, rules=data.get("rules", ()), store=store, pending=pending)


__all__ = [
    "AlertEngine",
    "AlertLogEntry",
    "AlertRule",
    "CAUSES",
    "Chain",
    "DEFAULT_RULES",
    "DeathRecord",
    "Forensics",
    "ForensicsCollector",
    "InfectionEvent",
    "LineageStore",
    "RotSpot",
    "SIGNALS",
    "TupleLife",
    "render_chain",
    "render_spots",
]
