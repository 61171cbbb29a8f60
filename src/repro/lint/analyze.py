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
* an estimated row footprint from the equi-width histograms of the
  planner's lazy, cached :func:`~repro.storage.stats.planner_stats`
  view — only the columns the predicate names are ever read.

Verdicts are exact claims, checked by the sim driver's ``--analyze``
mode: an executed consume classified ``none`` must consume zero rows
and one classified ``total`` must consume the entire pre-statement
extent. ``partial`` makes no promise beyond "not provably either".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple, Union

from repro.errors import CatalogError, ConsumeError, QueryError
from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    ExplainStmt,
    Expression,
    InList,
    IsNull,
    Literal,
    SelectStmt,
    UnaryOp,
    walk,
)
from repro.query.normalize import (
    Domains,
    IntervalSet,
    Truth,
    classify,
    conjuncts,
    disjuncts,
    normalize,
    numeric_atom,
)
from repro.query.parser import parse
from repro.query.planner import plan_select
from repro.storage.catalog import Catalog
from repro.storage.schema import ColumnDef, DataType, Schema
from repro.storage.stats import ColumnStats, PlannerStats, planner_stats

#: Selectivity guess for atoms the estimator cannot reason about
#: (function calls, column-to-column comparisons, ...).
DEFAULT_SELECTIVITY = 1.0 / 3.0

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
    estimated_rows: Optional[int]
    selectivity: Optional[float]
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
    and histogram-based footprint estimation come in.
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
        stats: Optional[PlannerStats] = None
        extent: Optional[int] = None

        if self.catalog is not None:
            try:
                table = self.catalog.table(stmt.table.name)
                schema = table.schema
                extent = len(table)
            except (CatalogError, QueryError) as exc:
                errors.append(str(exc))
            try:
                plan_select(stmt, self.catalog)
            except (CatalogError, QueryError) as exc:
                message = str(exc)
                if message not in errors:
                    errors.append(message)
            if schema is not None:
                errors.extend(_type_errors(stmt.where, schema))
                if not errors:
                    stats = planner_stats(table)

        normalized = normalize(stmt.where) if stmt.where is not None else None
        domains = self._domains(stmt.table.name)
        if errors:
            verdict = "invalid"
        else:
            truth = classify(normalized, schema=schema, domains=domains)
            verdict = {
                Truth.ALWAYS_FALSE: "none",
                Truth.ALWAYS_TRUE: "total",
                Truth.CONTINGENT: "partial",
            }[truth]

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
        elif verdict == "partial" and stats is not None and extent is not None:
            selectivity = _selectivity(normalized, stats)
            estimated = max(0, min(extent, round(selectivity * extent)))

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


# ---------------------------------------------------------------------------
# selectivity estimation
# ---------------------------------------------------------------------------


def predicate_selectivity(expr: Optional[Expression], stats: PlannerStats) -> float:
    """Estimated matching fraction of the live rows, in ``[0, 1]``.

    The public face of the Tier-B estimator: ``EXPLAIN ANALYZE`` uses
    the exact same arithmetic for its per-operator row estimates, so
    the misestimation factors it prints grade this function — the one
    the strict-consume gate and the consume reports already trust.
    """
    return _selectivity(expr, stats)


def _selectivity(expr: Optional[Expression], stats: PlannerStats) -> float:
    """Estimated matching fraction of the live rows, in ``[0, 1]``."""
    if expr is None:
        return 1.0
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        out = 1.0
        for part in conjuncts(expr):
            out *= _selectivity(part, stats)
        return out
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        out = 0.0
        for part in disjuncts(expr):
            s = _selectivity(part, stats)
            out = out + s - out * s
        return out
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return max(0.0, 1.0 - _selectivity(expr.operand, stats))
    if isinstance(expr, Literal):
        return 1.0 if expr.value is True else 0.0
    return _atom_selectivity(expr, stats)


def _column_stats(stats: PlannerStats, name: str) -> Optional[ColumnStats]:
    try:
        return stats.column(name)
    except KeyError:
        return None


def _atom_selectivity(expr: Expression, stats: PlannerStats) -> float:
    atom = numeric_atom(expr)
    if atom is not None:
        column, satisfied, _ = atom
        cs = _column_stats(stats, column)
        if cs is None or cs.count == 0:
            return DEFAULT_SELECTIVITY
        non_null_share = (cs.count - cs.nulls) / cs.count
        return min(1.0, _interval_fraction(satisfied, cs) * non_null_share)
    if isinstance(expr, IsNull):
        column = expr.operand.name if isinstance(expr.operand, ColumnRef) else None
        if column is None:
            return DEFAULT_SELECTIVITY
        cs = _column_stats(stats, column)
        if cs is None or cs.count == 0:
            return DEFAULT_SELECTIVITY
        null_share = cs.nulls / cs.count
        return (1.0 - null_share) if expr.negated else null_share
    if isinstance(expr, BinaryOp) and expr.op in ("=", "!="):
        sel = _equality_selectivity(expr, stats)
        if sel is not None:
            return sel if expr.op == "=" else max(0.0, 1.0 - sel)
    if isinstance(expr, InList) and isinstance(expr.operand, ColumnRef):
        cs = _column_stats(stats, expr.operand.name)
        if cs is not None and cs.distinct > 0:
            sel = min(1.0, len(expr.items) / cs.distinct)
            return max(0.0, 1.0 - sel) if expr.negated else sel
    if isinstance(expr, ColumnRef):
        cs = _column_stats(stats, expr.name)
        if cs is not None and cs.distinct > 0:
            return 1.0 / cs.distinct  # a bare boolean column
    return DEFAULT_SELECTIVITY


def _equality_selectivity(expr: BinaryOp, stats: PlannerStats) -> Optional[float]:
    """``1/distinct`` for ``col = const`` when the constant is in range."""
    column: Optional[ColumnRef] = None
    literal: Optional[Literal] = None
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        column, literal = expr.left, expr.right
    elif isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        column, literal = expr.right, expr.left
    if column is None or literal is None or literal.value is None:
        return None
    cs = _column_stats(stats, column.name)
    if cs is None or cs.count == 0:
        return None
    if cs.distinct == 0:
        return 0.0
    value = literal.value
    try:
        if cs.min_value is not None and value < cs.min_value:
            return 0.0
        if cs.max_value is not None and value > cs.max_value:
            return 0.0
    except TypeError:
        return None
    return 1.0 / cs.distinct


def _interval_fraction(satisfied: IntervalSet, cs: ColumnStats) -> float:
    """Histogram mass of an interval set, with ``1/distinct`` for points."""
    hist = cs.histogram
    total = 0.0
    for interval in satisfied.intervals:
        if interval.low == interval.high:
            if cs.distinct > 0 and _in_range(interval.low, cs):
                total += 1.0 / cs.distinct
        elif hist is not None:
            total += hist.fraction_between(interval.low, interval.high)
        else:
            total += DEFAULT_SELECTIVITY
    return min(1.0, total)


def _in_range(value: float, cs: ColumnStats) -> bool:
    try:
        if cs.min_value is not None and value < cs.min_value:
            return False
        if cs.max_value is not None and value > cs.max_value:
            return False
    except TypeError:
        return False
    return True
