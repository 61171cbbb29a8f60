"""Snapshot-at-tick: immutable read views queried by the one executor.

Law 1 mutates the numpy freshness/time columns in place; a reader that
scanned those arrays while a tick was mid-flight could see half a
relation decayed and half not — a torn read. The server avoids this
without ever blocking readers: at each tick *boundary* the worker
thread copies the live rows of every decaying table
(:meth:`~repro.storage.table.Table.dense_copy` — one gather per
column, the rot dirty-map carried along so freshness span pruning
stays sound) into a :class:`TickSnapshot` and publishes it with one
atomic attribute swap. Snapshot reads then run against those frozen
copies on the event loop, while the worker grinds the next tick
against the live arrays — the two never share mutable state.

The copies are ordinary vectorized tables behind an ordinary
:class:`~repro.query.executor.QueryEngine`, so a snapshot read plans
and executes exactly as a strong read does (same mask pipeline, same
EXPLAIN); only the data it sees is one tick boundary old.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.query.ast_nodes import SelectStmt, Statement
from repro.query.executor import QueryEngine
from repro.query.result import ResultSet
from repro.storage.catalog import Catalog

if TYPE_CHECKING:
    from repro.core.db import FungusDB


class TickSnapshot:
    """A frozen, queryable view of the whole database at one tick."""

    def __init__(self, tick: float, engine: QueryEngine) -> None:
        self.tick = tick
        #: hook-less engine over the frozen copies (the gatekeeper
        #: analyzes snapshot statements against it)
        self.engine = engine

    @classmethod
    def capture(cls, db: "FungusDB") -> "TickSnapshot":
        """Copy every decaying table's live rows. Worker thread only."""
        catalog = Catalog()
        for name in sorted(db.tables):
            catalog.register(db.tables[name].storage.dense_copy())
        return cls(tick=db.clock.now, engine=QueryEngine(catalog))

    @property
    def rows(self) -> int:
        """Total live rows captured, across all tables (span attribute)."""
        catalog = self.engine.catalog
        return sum(len(catalog.table(name)) for name in catalog)

    def query(self, statement: Statement, sql: str) -> ResultSet:
        """Run one read-only statement against the frozen copies.

        The statement has already passed the gatekeeper; this guard is
        the snapshot defending itself — a consume executed here would
        silently eat copies instead of real rows.
        """
        if not isinstance(statement, SelectStmt) or statement.consume:
            raise StorageError(
                f"snapshot reads are SELECT-only; {sql!r} must run at "
                f"strong consistency"
            )
        return self.engine.execute(statement)
