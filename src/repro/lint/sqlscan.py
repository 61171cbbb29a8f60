"""Scan python sources for embedded ``CONSUME SELECT`` statements.

``python -m repro.lint sql <paths>`` pulls every string literal that
*is* a consume statement (it must start with ``CONSUME SELECT`` or
``EXPLAIN CONSUME SELECT``) out of the target files and runs Tier-B
analysis over each, schema-less: contradictions and tautologies are
still decidable from the predicate alone. The scan fails (exit 1) if
any embedded statement is statically *total* — a whole-extent consume
baked into an example or script is almost certainly a bug under
Law 2.

``python -m repro.lint sql --explain <paths>`` widens the net to every
embedded statement (SELECT, CONSUME SELECT, DELETE, INSERT) and runs
``EXPLAIN ANALYZE`` over each against an inferred empty-table catalog:
columns come from the statement's own references, types from the
literals they are compared against. Rows never matter — the point is
that parse → plan → instrument → render completes without error for
every statement the examples ship, so a planner or renderer regression
cannot hide behind "nobody ran that query". Exit 1 on any failure.

F-strings and concatenations that lead with ``CONSUME SELECT`` are
reported as dynamic (not analyzable) without failing the scan.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from repro.errors import ParseError
from repro.lint.analyze import ConsumeAnalyzer, ConsumeReport

if TYPE_CHECKING:  # runtime imports stay lazy: repro.query imports us back
    from repro.query.ast_nodes import DeleteStmt, SelectStmt
    from repro.storage import Catalog

_CONSUME_RE = re.compile(r"\s*(EXPLAIN\s+)?CONSUME\s+SELECT\b", re.IGNORECASE)

#: any embedded SQL statement, prose-resistant: SELECT must lead to a
#: FROM, DELETE/INSERT must carry their mandatory keyword.
_SQL_RE = re.compile(
    r"\s*(?:EXPLAIN\s+(?:ANALYZE\s+)?)?"
    r"(?:CONSUME\s+SELECT\b|SELECT\s[\s\S]+?\bFROM\s|DELETE\s+FROM\s|INSERT\s+INTO\s)",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class EmbeddedConsume:
    """One consume statement found inside a python source file."""

    path: str
    line: int
    sql: Optional[str]  # None for dynamic (f-string) statements
    report: Optional[ConsumeReport] = None

    @property
    def verdict(self) -> str:
        if self.sql is None:
            return "dynamic"
        assert self.report is not None
        return self.report.verdict

    def format(self) -> str:
        if self.sql is None:
            return (
                f"{self.path}:{self.line}: dynamic consume statement "
                "(f-string; not statically analyzable)"
            )
        assert self.report is not None
        line = f"{self.path}:{self.line}: {self.report.verdict}"
        if self.report.errors:
            line += f" ({'; '.join(self.report.errors)})"
        return f"{line} — {self.sql.strip()}"


def iter_embedded(paths: Iterable[str | Path]) -> Iterator[EmbeddedConsume]:
    """Yield embedded consume statements, unanalyzed (report=None)."""
    for path in _python_files(paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue
        fstring_parts = {
            id(part)
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            for part in node.values
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in fstring_parts
                and _CONSUME_RE.match(node.value)
            ):
                yield EmbeddedConsume(str(path), node.lineno, node.value)
            elif isinstance(node, ast.JoinedStr):
                head = node.values[0] if node.values else None
                if (
                    isinstance(head, ast.Constant)
                    and isinstance(head.value, str)
                    and _CONSUME_RE.match(head.value)
                ):
                    yield EmbeddedConsume(str(path), node.lineno, None)


def scan(paths: Iterable[str | Path]) -> list[EmbeddedConsume]:
    """Find and analyze every embedded consume under ``paths``."""
    analyzer = ConsumeAnalyzer()
    results: list[EmbeddedConsume] = []
    for found in iter_embedded(paths):
        if found.sql is None:
            results.append(found)
            continue
        try:
            report = analyzer.analyze(found.sql)
        except ParseError as exc:
            # looked like a consume, is not SQL: invalid, never a crash
            report = ConsumeReport(
                sql=found.sql,
                table="",
                verdict="invalid",
                where_sql=None,
                normalized_sql=None,
                extent=None,
                estimated_rows=None,
                selectivity=None,
                errors=(str(exc),),
            )
        results.append(
            EmbeddedConsume(found.path, found.line, found.sql, report)
        )
    return results


@dataclass(frozen=True)
class ExplainOutcome:
    """EXPLAIN ANALYZE result for one embedded statement."""

    path: str
    line: int
    sql: Optional[str]  # None for dynamic (f-string) statements
    status: str  # "ok" | "failed" | "dynamic" | "insert"
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "failed"

    def format(self) -> str:
        if self.status == "dynamic":
            return (
                f"{self.path}:{self.line}: dynamic statement "
                "(f-string; not statically explainable)"
            )
        assert self.sql is not None
        statement = " ".join(self.sql.split())
        if self.status == "insert":
            return (
                f"{self.path}:{self.line}: insert (EXPLAIN does not "
                f"apply) — {statement}"
            )
        if self.status == "failed":
            return (
                f"{self.path}:{self.line}: EXPLAIN ANALYZE failed "
                f"({self.detail}) — {statement}"
            )
        return (
            f"{self.path}:{self.line}: explained ok ({self.detail}) "
            f"— {statement}"
        )


def iter_sql(paths: Iterable[str | Path]) -> Iterator[EmbeddedConsume]:
    """Yield every embedded SQL statement (report stays None).

    Same walk as :func:`iter_embedded` but matching all statement
    kinds, not just consumes.
    """
    for path in _python_files(paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError:
            continue
        fstring_parts = {
            id(part)
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr)
            for part in node.values
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in fstring_parts
                and _SQL_RE.match(node.value)
            ):
                yield EmbeddedConsume(str(path), node.lineno, node.value)
            elif isinstance(node, ast.JoinedStr):
                head = node.values[0] if node.values else None
                if (
                    isinstance(head, ast.Constant)
                    and isinstance(head.value, str)
                    and _SQL_RE.match(head.value)
                ):
                    yield EmbeddedConsume(str(path), node.lineno, None)


def _inferred_catalog(stmt: SelectStmt | DeleteStmt) -> Catalog:
    """Build an empty-table catalog wide enough to plan ``stmt``.

    Tables come from the FROM/JOIN clauses, columns from the
    statement's own column references, and types from the literals a
    column is compared against (string comparison ⇒ ``str``, anything
    else ⇒ ``float``, which INT literals coerce into). Extents stay
    empty: the check is parse → plan → instrument → render, not
    row-level evaluation.
    """
    from repro.query.ast_nodes import ColumnRef, Literal, SelectStmt, walk
    from repro.storage import Catalog, Schema, Table

    # binding (alias or name) -> real table name, in FROM-first order
    bindings = {stmt.target: stmt.target}
    if isinstance(stmt, SelectStmt):
        bindings = {stmt.table.binding: stmt.target}
        if stmt.join is not None:
            bindings.setdefault(stmt.join.table.binding, stmt.join.table.name)

    home = next(iter(bindings))  # unqualified columns bind to FROM
    columns: dict[str, dict[str, str]] = {name: {} for name in bindings.values()}

    def place(ref: ColumnRef, dtype: Optional[str] = None) -> None:
        table = bindings.get(ref.table or home)
        if table is None:  # unknown qualifier: leave it to the planner
            return
        if dtype or ref.name not in columns[table]:
            columns[table][ref.name] = dtype or "float"

    for expr in stmt.expressions():
        for node in walk(expr):
            if isinstance(node, ColumnRef):
                place(node)
                continue
            # a column that shares a node with a string literal (compared
            # with it, listed against it, bounded by it) is a str column
            operands = node.children()
            if any(
                isinstance(lit, Literal) and isinstance(lit.value, str)
                for lit in operands
            ):
                for ref in operands:
                    if isinstance(ref, ColumnRef):
                        place(ref, "str")

    catalog = Catalog()
    for name in bindings.values():
        spec = dict(columns[name])
        spec.setdefault("f", "float")  # the freshness column always exists
        catalog.register(Table(Schema.of(**spec), name=name))
    return catalog


def explain_check(paths: Iterable[str | Path]) -> list[ExplainOutcome]:
    """EXPLAIN ANALYZE every embedded statement against empty tables."""
    from repro.query import QueryEngine, parse
    from repro.query.ast_nodes import ExplainStmt, InsertStmt

    outcomes: list[ExplainOutcome] = []
    for found in iter_sql(paths):
        if found.sql is None:
            outcomes.append(
                ExplainOutcome(found.path, found.line, None, "dynamic")
            )
            continue
        try:
            stmt = parse(found.sql)
            inner = stmt.inner if isinstance(stmt, ExplainStmt) else stmt
            if isinstance(inner, InsertStmt):
                outcomes.append(
                    ExplainOutcome(found.path, found.line, found.sql, "insert")
                )
                continue
            engine = QueryEngine(_inferred_catalog(inner))
            result = engine.execute(ExplainStmt(inner=inner, analyze=True))
            detail = f"{len(result.rows)} plan line(s)"
            outcomes.append(
                ExplainOutcome(found.path, found.line, found.sql, "ok", detail)
            )
        except Exception as exc:  # any crash in parse/plan/render fails
            outcomes.append(
                ExplainOutcome(
                    found.path,
                    found.line,
                    found.sql,
                    "failed",
                    f"{type(exc).__name__}: {exc}",
                )
            )
    return outcomes


def _python_files(paths: Iterable[str | Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files
