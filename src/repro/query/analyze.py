"""Tier B: static consumption-footprint analysis for Law-2 queries.

``CONSUME SELECT`` rewrites the extent to ``R − σ_P(R)``, so a typo in
``P`` destroys data. :class:`ConsumeAnalyzer` inspects a consume
statement *before* execution and reports:

* static errors — unknown tables/columns, consume-over-join, type
  mismatches between a column and the constant it is compared with
  (exactly the statements that would raise at runtime);
* a footprint verdict — ``none`` (the predicate provably matches no
  row), ``total`` (provably matches every live row), ``partial``
  (anything in between), or ``invalid`` (static errors present);
* an estimated row footprint: the ``consume`` node of the planner's
  own :func:`~repro.query.planner.estimate` for the statement's plan,
  so ``EXPLAIN CONSUME`` and ``EXPLAIN ANALYZE`` print one number.

Verdicts are exact claims, checked by the sim driver's ``--analyze``
mode: an executed consume classified ``none`` must consume zero rows
and one classified ``total`` must consume the entire pre-statement
extent. ``partial`` makes no promise beyond "not provably either".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from repro.errors import CatalogError, ConsumeError, QueryError
from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    ExplainStmt,
    Expression,
    InList,
    Literal,
    SelectStmt,
    walk,
)
from repro.query.normalize import Domains, Truth, classify, normalize
from repro.query.parser import parse
from repro.query.planner import SelectPlan, estimate, plan_select
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnDef, DataType, Schema

#: Maps a table name to the closed numeric domains of its columns —
#: FungusDB supplies ``{freshness_column: (0.0, 1.0)}``.
DomainsProvider = Callable[[str], Optional[Domains]]

_NUMERIC = frozenset({DataType.INT, DataType.FLOAT, DataType.TIMESTAMP})


@dataclass(frozen=True)
class ConsumeReport:
    """Everything the analyzer can say about one consume statement."""

    sql: str
    table: str
    verdict: str  # "none" | "partial" | "total" | "invalid"
    where_sql: Optional[str]
    normalized_sql: Optional[str]
    extent: Optional[int]
    estimated_rows: Optional[int]  # the plan's consume estimate
    selectivity: Optional[float]  # estimated_rows as a share of extent
    errors: Tuple[str, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def is_total(self) -> bool:
        return self.verdict == "total"

    def describe(self) -> str:
        """Multi-line human rendering (the ``EXPLAIN CONSUME`` output)."""
        extent = "unknown" if self.extent is None else str(self.extent)
        lines = [
            "EXPLAIN CONSUME (Law 2 footprint analysis)",
            f"  statement:  {self.sql}",
            f"  table:      {self.table} (extent {extent})",
            f"  where:      {self.where_sql or '<absent>'}",
        ]
        if self.normalized_sql is not None and self.normalized_sql != self.where_sql:
            lines.append(f"  normalized: {self.normalized_sql}")
        lines.append(f"  verdict:    {self.verdict}")
        if self.estimated_rows is not None and self.extent is not None:
            sel = f" (selectivity {self.selectivity:.4f})" if self.selectivity is not None else ""
            lines.append(
                f"  estimated:  {self.estimated_rows} of {self.extent} rows{sel}"
            )
        for warning in self.warnings:
            lines.append(f"  warning:    {warning}")
        for error in self.errors:
            lines.append(f"  error:      {error}")
        return "\n".join(lines)


class ConsumeAnalyzer:
    """Static analysis of ``CONSUME SELECT`` statements.

    Without a catalog only predicate-level reasoning runs (parsing,
    normalization, contradiction detection); with one, column/type
    checking, nullability-aware tautology claims, domain invariants
    and the plan's footprint estimate come in.
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        domains_provider: Optional[DomainsProvider] = None,
    ) -> None:
        self.catalog = catalog
        self.domains_provider = domains_provider

    def analyze(self, statement: Union[str, SelectStmt]) -> ConsumeReport:
        """Analyze one consume statement; never executes anything."""
        stmt = parse(statement) if isinstance(statement, str) else statement
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.inner
        if not isinstance(stmt, SelectStmt) or not stmt.consume:
            raise ConsumeError(
                "consumption analysis applies to CONSUME SELECT statements only"
            )

        errors: list[str] = []
        warnings: list[str] = []
        schema: Optional[Schema] = None
        plan: Optional[SelectPlan] = None
        extent: Optional[int] = None

        if self.catalog is not None:
            try:
                table = self.catalog.table(stmt.table.name)
                schema = table.schema
                extent = len(table)
            except (CatalogError, QueryError) as exc:
                errors.append(str(exc))
            try:
                plan = plan_select(stmt, self.catalog)
            except (CatalogError, QueryError) as exc:
                message = str(exc)
                if message not in errors:
                    errors.append(message)
            if schema is not None:
                errors.extend(_type_errors(stmt.where, schema))

        normalized = normalize(stmt.where) if stmt.where is not None else None
        domains = self._domains(stmt.table.name)
        if errors:
            verdict = "invalid"
        else:
            verdict = footprint_verdict(normalized, schema, domains)

        if verdict == "none":
            warnings.append("predicate can never match: this consume is a no-op")
        if verdict == "total":
            warnings.append(
                "predicate matches every live row: this consume empties the table"
            )
        if stmt.limit is not None and verdict != "invalid":
            warnings.append(
                f"LIMIT {stmt.limit} truncates the answer only — Law 2 still "
                "removes every matching base row"
            )

        estimated: Optional[int] = None
        selectivity: Optional[float] = None
        if verdict == "none":
            estimated, selectivity = 0, 0.0
        elif verdict == "total":
            estimated, selectivity = extent, 1.0
        elif verdict == "partial" and plan is not None and extent is not None:
            assert self.catalog is not None
            estimated = estimate(plan, self.catalog)["consume"]
            selectivity = estimated / extent if extent else 0.0

        return ConsumeReport(
            sql=stmt.to_sql(),
            table=stmt.table.name,
            verdict=verdict,
            where_sql=stmt.where.to_sql() if stmt.where is not None else None,
            normalized_sql=normalized.to_sql() if normalized is not None else None,
            extent=extent,
            estimated_rows=estimated,
            selectivity=selectivity,
            errors=tuple(errors),
            warnings=tuple(warnings),
        )

    def _domains(self, table_name: str) -> Optional[Domains]:
        if self.domains_provider is None:
            return None
        return self.domains_provider(table_name)


def footprint_verdict(
    where: Optional[Expression],
    schema: Optional[Schema],
    domains: Optional[Domains],
) -> str:
    """``none`` when ``where`` provably matches no row, ``total`` when
    it provably matches every live row, ``partial`` otherwise — the
    verdict a CONSUME or DELETE predicate is gated on."""
    truth = classify(where, schema=schema, domains=domains)
    if truth is Truth.ALWAYS_FALSE:
        return "none"
    return "total" if truth is Truth.ALWAYS_TRUE else "partial"


# ---------------------------------------------------------------------------
# column/type checking
# ---------------------------------------------------------------------------


def _type_errors(where: Optional[Expression], schema: Schema) -> list[str]:
    """Column-vs-constant type mismatches that would raise at runtime."""
    errors: list[str] = []
    if where is not None:
        for node in walk(where):
            _check_node(node, schema, errors)
    return errors


def _column_def(expr: Expression, schema: Schema) -> Optional[ColumnDef]:
    if isinstance(expr, ColumnRef) and expr.name in schema:
        return schema.column(expr.name)
    return None


def _literal_group(value: object) -> Optional[str]:
    if value is None:
        return None  # NULL compares with anything (to NULL)
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "numeric"
    if isinstance(value, str):
        return "str"
    return None


def _dtype_group(dtype: DataType) -> str:
    if dtype in _NUMERIC:
        return "numeric"
    return "bool" if dtype is DataType.BOOL else "str"


def _check_pair(column: ColumnDef, literal: Literal, context: str, errors: list[str]) -> None:
    group = _literal_group(literal.value)
    if group is None:
        return
    expected = _dtype_group(column.dtype)
    if group != expected:
        errors.append(
            f"type mismatch in {context}: column {column.name!r} is "
            f"{column.dtype.value} but compared with {literal.to_sql()}"
        )


def _check_node(expr: Expression, schema: Schema, errors: list[str]) -> None:
    """Type rules of one node; :func:`walk` brings every node here."""
    if isinstance(expr, BinaryOp) and expr.op in ("=", "!=", "<", "<=", ">", ">="):
        left_def = _column_def(expr.left, schema)
        right_def = _column_def(expr.right, schema)
        if left_def is not None and isinstance(expr.right, Literal):
            _check_pair(left_def, expr.right, expr.to_sql(), errors)
        if right_def is not None and isinstance(expr.left, Literal):
            _check_pair(right_def, expr.left, expr.to_sql(), errors)
        if (
            left_def is not None
            and right_def is not None
            and _dtype_group(left_def.dtype) != _dtype_group(right_def.dtype)
        ):
            errors.append(
                f"type mismatch in {expr.to_sql()}: {left_def.name!r} is "
                f"{left_def.dtype.value}, {right_def.name!r} is "
                f"{right_def.dtype.value}"
            )
    elif isinstance(expr, (Between, InList)):
        operand_def = _column_def(expr.operand, schema)
        for other in expr.children()[1:]:
            if operand_def is not None and isinstance(other, Literal):
                _check_pair(operand_def, other, expr.to_sql(), errors)
