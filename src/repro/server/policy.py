"""The plan-time gatekeeper: policy enforced before execution.

The server never hands raw SQL to the engine. Every statement is
parsed and *planned* first, the tables the plan touches are extracted,
and the session's grant is checked against them — so a session lacking
CONSUME rights on a table is refused before a single row is read, and
a statement that doesn't survive the planner is refused with the
planner's own diagnostic rather than a half-executed mess.

CONSUME statements additionally pass through the Tier-B analyzer
(:meth:`repro.query.executor.QueryEngine.analyze_consume`), reusing
the EXPLAIN layer as the gate: a statement the analyzer proves
*invalid* is refused outright, and one it proves *total* (would eat
the entire extent) requires the admin grant — per-table consume rights
cover partial harvests only. The verdict rides back to the caller in
the refusal, so a denied client learns not just "no" but "the analyzer
proved this consumes all of ``orders``".

DELETE is held to the same total-extent bar: a bare ``DELETE FROM t``
— or one whose WHERE is provably a tautology — removes every live row
just as a total consume does, so it too demands the admin grant; the
per-table ``consume`` right covers partial removals only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import FungusError
from repro.query.analyze import footprint_verdict
from repro.query.ast_nodes import (
    DeleteStmt,
    ExplainStmt,
    SelectStmt,
    Statement,
)
from repro.query.parser import parse
from repro.query.planner import JoinPlan, ScanPlan, plan_select
from repro.server.auth import Grant
from repro.server.protocol import Code

if TYPE_CHECKING:
    from repro.query.executor import QueryEngine


class AccessDenied(Exception):
    """The gatekeeper refused a statement; ``code`` names the reason."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Admission:
    """What the gatekeeper decided about one statement."""

    statement: Statement
    kind: str  # "select" | "consume" | "insert" | "delete" | "explain"
    tables: tuple[str, ...]
    verdict: str | None = None  # Tier-B verdict for consume/delete statements
    required: tuple[tuple[str, str], ...] = field(default_factory=tuple)


#: Statement kind → the right demanded on every table it touches.
#: DELETE removes rows just like Law 2 does, so it costs ``consume``.
RIGHT_FOR_KIND = {
    "select": "read",
    "explain": "read",
    "insert": "insert",
    "delete": "consume",
}


class Gatekeeper:
    """Plan-time policy: parse, plan, analyze, *then* decide."""

    def __init__(self, engine: "QueryEngine") -> None:
        self.engine = engine

    def admit(self, sql: str, grant: Grant) -> Admission:
        """Parse/plan ``sql`` and check ``grant``; raise :class:`AccessDenied`.

        Returns the parsed statement so the execution path never
        re-parses — what was admitted is exactly what runs.
        """
        try:
            stmt = parse(sql)
        except FungusError as exc:
            raise AccessDenied(Code.QUERY_ERROR, str(exc)) from exc
        # EXPLAIN ANALYZE really runs its inner statement (Postgres
        # semantics), so that statement's rights and gates apply
        gated = stmt.inner if isinstance(stmt, ExplainStmt) and stmt.analyze else stmt
        kind = gated.kind
        tables = self._tables(stmt)
        required = [(table, self._right(kind)) for table in tables]
        if kind == "consume":
            # consume also implies read: the answer set is returned
            required += [(table, "read") for table in tables]
        for table, right in required:
            if not grant.allows(table, right):
                raise AccessDenied(
                    Code.DENIED,
                    f"{grant.principal!r} lacks {right!r} on table {table!r}",
                )
        verdict = None
        if isinstance(gated, SelectStmt) and gated.consume:
            verdict = self._analyze(gated, grant, tables)
        elif isinstance(gated, DeleteStmt):
            verdict = self._analyze_delete(gated, grant)
        return Admission(
            statement=stmt,
            kind=stmt.kind,
            tables=tables,
            verdict=verdict,
            required=tuple(required),
        )

    # ------------------------------------------------------------------

    def _right(self, kind: str) -> str:
        return RIGHT_FOR_KIND.get(kind, "consume")

    def _tables(self, stmt: Statement) -> tuple[str, ...]:
        """Every base table the statement touches, via its plan."""
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.inner
        if not isinstance(stmt, SelectStmt):
            return (stmt.target,)
        try:
            plan = plan_select(stmt, self.engine.catalog)
        except FungusError as exc:
            raise AccessDenied(Code.QUERY_ERROR, str(exc)) from exc
        source = plan.source
        if isinstance(source, ScanPlan):
            return (source.table_name,)
        assert isinstance(source, JoinPlan)
        return (source.left.table_name, source.right.table_name)

    def _analyze(
        self, stmt: SelectStmt, grant: Grant, tables: tuple[str, ...]
    ) -> str:
        """Tier-B gate: invalid consumes are refused, total ones need admin."""
        report = self.engine.analyze_consume(stmt)
        if report.verdict == "invalid":
            detail = "; ".join(report.errors) if report.errors else "unsatisfiable"
            raise AccessDenied(
                Code.QUERY_ERROR, f"analyzer refused the consume: {detail}"
            )
        if report.verdict == "total" and not grant.admin:
            raise AccessDenied(
                Code.DENIED,
                f"analyzer proved this consumes the entire extent of "
                f"{tables[0]!r} ({report.extent} rows); total consumes "
                f"require the admin grant",
            )
        return report.verdict

    def _analyze_delete(self, stmt: DeleteStmt, grant: Grant) -> str:
        """Total-extent gate for DELETE: wiping a table needs admin.

        ``DELETE FROM t`` with no WHERE — or a WHERE the classifier
        proves always true — removes every live row, the same outcome a
        total consume is gated on, so it is held to the same bar.
        """
        try:
            table = self.engine.catalog.table(stmt.table)
        except FungusError as exc:
            raise AccessDenied(Code.QUERY_ERROR, str(exc)) from exc
        domains = None
        if self.engine.consume_domains is not None:
            domains = self.engine.consume_domains(stmt.table)
        verdict = footprint_verdict(stmt.where, table.schema, domains)
        if verdict == "total" and not grant.admin:
            raise AccessDenied(
                Code.DENIED,
                f"this DELETE removes the entire extent of {stmt.table!r} "
                f"({len(table)} rows); total deletes require the admin grant",
            )
        return verdict
