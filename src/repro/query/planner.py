"""Logical planning: AST -> validated plan tree.

The planner resolves tables against the catalog, checks every column
reference, decides whether an index can serve (part of) the WHERE
clause, and rejects semantically invalid statements (aggregates mixed
with bare columns outside GROUP BY, CONSUME with a JOIN, ...).

Plan trees are small frozen dataclasses interpreted by
:mod:`repro.query.operators`; there is no physical/logical split beyond
index selection because the substrate has exactly one access path per
index kind.

Each scan plan carries the ``mode:`` line EXPLAIN prints: its filters
all run as boolean masks (``vectorized``), some do (``hybrid``), or
none compiles (``row-fallback``). A predicate on one STR column counts
as a mask: it runs on the column's dictionary codes. There is one
storage backend, so the mode depends on the predicates and the schema,
never on the table.

The cost model lives here too: :func:`selectivity` turns a predicate
into a matching fraction from the equi-width histograms of the lazy,
cached :func:`~repro.storage.stats.planner_stats` view, and
:func:`estimate` turns a plan into per-node row counts. The planner
orders filters by the first; ``EXPLAIN`` prints the second,
``EXPLAIN ANALYZE`` grades it, and ``EXPLAIN CONSUME`` reports its
``consume`` figure. Neither is computed unless asked for: a scan with
one conjunct plans without reading a statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import PlanError
from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    Expression,
    FuncCall,
    InList,
    InsertStmt,
    IsNull,
    JoinClause,
    Literal,
    OrderItem,
    Projection,
    SelectStmt,
    Star,
    TableRef,
    UnaryOp,
    rewrite_leaves,
)
from repro.query.functions import aggregate_arity, is_aggregate
from repro.query.masks import mask_compilable
from repro.query.normalize import IntervalSet, conjuncts, disjuncts, numeric_atom
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.storage.stats import ColumnStats, PlannerStats, planner_stats

#: Selectivity guess for atoms the estimator cannot reason about
#: (function calls, column-to-column comparisons, ...).
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class IndexAccess:
    """How the scan will use an index instead of a full pass.

    ``conjunct`` is the WHERE conjunct the access stands in for; the
    estimator reads it as written (a BETWEEN stays one interval).
    """

    kind: str  # "hash-eq" | "sorted-range"
    column: str
    conjunct: Expression
    eq_value: Any = None
    low: Any = None
    high: Any = None
    include_low: bool = True
    include_high: bool = True

    def describe(self) -> str:
        """Human-readable access-path description for stats output."""
        if self.kind == "hash-eq":
            return f"hash({self.column}={self.eq_value!r})"
        lo = "[" if self.include_low else "("
        hi = "]" if self.include_high else ")"
        return f"range({self.column} in {lo}{self.low!r}, {self.high!r}{hi})"


@dataclass(frozen=True)
class ScanPlan:
    """Scan one base table, optionally through an index, with a residual filter.

    ``filters`` holds the residual's conjuncts in execution order
    (cheapest-first by estimated selectivity when the planner had ≥ 2
    to order; ``filter_sels`` aligns with them and is empty otherwise).
    ``filter_vec`` flags which conjuncts have mask-compilable shape.
    ``mode`` is the planned predicate-evaluation route for EXPLAIN:
    ``vectorized`` (all filters as masks, or none to run), ``hybrid``
    (some), or ``row-fallback`` (no filter compiles to a mask).
    """

    table_name: str
    binding: str
    index: IndexAccess | None = None
    residual: Expression | None = None
    filters: tuple[Expression, ...] = ()
    filter_sels: tuple[float, ...] = ()
    filter_vec: tuple[bool, ...] = ()
    mode: str = "row-fallback"


@dataclass(frozen=True)
class JoinPlan:
    """Hash equi-join of two scans, with a post-join residual filter."""

    left: ScanPlan
    right: ScanPlan
    left_key: str  # row-context key on the left side
    right_key: str
    residual: Expression | None = None


@dataclass(frozen=True)
class AggregatePlan:
    """Group rows and compute aggregate accumulators per group."""

    group_keys: tuple[str, ...]  # row-context keys
    group_names: tuple[str, ...]  # output context keys (bare names)
    aggregates: tuple[FuncCall, ...]
    having: Expression | None = None


@dataclass(frozen=True)
class SelectPlan:
    """The full plan for one statement."""

    source: ScanPlan | JoinPlan
    projections: tuple[Projection, ...]
    output_columns: tuple[str, ...]
    aggregate: AggregatePlan | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    consume: bool = False
    distinct: bool = False


# ----------------------------------------------------------------------
# name resolution
# ----------------------------------------------------------------------

class _Scope:
    """Column visibility for a statement: binding -> schema."""

    def __init__(self) -> None:
        self.bindings: dict[str, Schema] = {}

    def add(self, ref: TableRef, schema: Schema) -> None:
        if ref.binding in self.bindings:
            raise PlanError(f"duplicate table binding {ref.binding!r}")
        self.bindings[ref.binding] = schema

    def resolve(self, ref: ColumnRef) -> str:
        """Return the context key for ``ref``, checking existence/ambiguity."""
        if ref.table is not None:
            schema = self.bindings.get(ref.table)
            if schema is None:
                raise PlanError(f"unknown table qualifier {ref.table!r}")
            if ref.name not in schema:
                raise PlanError(f"table {ref.table!r} has no column {ref.name!r}")
            return ref.key
        owners = [b for b, schema in self.bindings.items() if ref.name in schema]
        if not owners:
            raise PlanError(f"unknown column {ref.name!r}")
        if len(owners) > 1:
            raise PlanError(f"ambiguous column {ref.name!r}: in tables {sorted(owners)}")
        return ref.name if len(self.bindings) == 1 else f"{owners[0]}.{ref.name}"

    def validate_expression(self, expr: Expression) -> None:
        for ref in expr.column_refs():
            self.resolve(ref)


# ----------------------------------------------------------------------
# index selection
# ----------------------------------------------------------------------

def _rebuild_and(conjs: list[Expression]) -> Expression | None:
    if not conjs:
        return None
    out = conjs[0]
    for conj in conjs[1:]:
        out = BinaryOp("AND", out, conj)
    return out


def _as_simple_comparison(expr: Expression) -> tuple[str, str, Any] | None:
    """Match ``col <op> literal`` / ``literal <op> col``; returns (col, op, value)."""
    if not isinstance(expr, BinaryOp) or expr.op not in ("=", "<", "<=", ">", ">="):
        return None
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        if expr.left.table is None and expr.right.value is not None:
            return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        if expr.right.table is None and expr.left.value is not None:
            return expr.right.name, flip[expr.op], expr.left.value
    return None


def _choose_index(
    catalog: Catalog, table_name: str, where: Expression | None
) -> tuple[IndexAccess | None, Expression | None]:
    """Pick one index-serviceable conjunct; return (access, residual)."""
    conjs = conjuncts(where)
    for i, conj in enumerate(conjs):
        simple = _as_simple_comparison(conj)
        if simple is not None:
            column, op, value = simple
            if op == "=" and catalog.hash_index(table_name, column) is not None:
                residual = _rebuild_and(conjs[:i] + conjs[i + 1:])
                return IndexAccess("hash-eq", column, conj, eq_value=value), residual
            if op != "=" and catalog.sorted_index(table_name, column) is not None:
                low = high = None
                include_low = include_high = True
                if op in (">", ">="):
                    low, include_low = value, op == ">="
                else:
                    high, include_high = value, op == "<="
                residual = _rebuild_and(conjs[:i] + conjs[i + 1:])
                return (
                    IndexAccess(
                        "sorted-range",
                        column,
                        conj,
                        low=low,
                        high=high,
                        include_low=include_low,
                        include_high=include_high,
                    ),
                    residual,
                )
        if (
            isinstance(conj, Between)
            and not conj.negated
            and isinstance(conj.operand, ColumnRef)
            and conj.operand.table is None
            and isinstance(conj.low, Literal)
            and isinstance(conj.high, Literal)
            and catalog.sorted_index(table_name, conj.operand.name) is not None
        ):
            residual = _rebuild_and(conjs[:i] + conjs[i + 1:])
            return (
                IndexAccess(
                    "sorted-range",
                    conj.operand.name,
                    conj,
                    low=conj.low.value,
                    high=conj.high.value,
                ),
                residual,
            )
    return None, where


# ----------------------------------------------------------------------
# scan finalization: filter order, execution mode
# ----------------------------------------------------------------------

def dequalify(expr: Expression, binding: str) -> Expression | None:
    """Strip ``binding.``-qualifications so single-table helpers
    (interval algebra, selectivity) see bare column references;
    ``None`` when ``expr`` names another table, which they cannot."""
    if any(ref.table not in (None, binding) for ref in expr.column_refs()):
        return None
    return rewrite_leaves(
        expr, column_fn=lambda ref: ColumnRef(ref.name) if ref.table else ref
    )


def _build_scan(
    catalog: Catalog,
    table_name: str,
    binding: str,
    index: IndexAccess | None,
    residual: Expression | None,
) -> ScanPlan:
    """Finalize one base-table scan: order its residual conjuncts by
    estimated selectivity and stamp the mask-vs-row mode per conjunct."""
    table = catalog.table(table_name)
    conjs = conjuncts(residual)
    sels: tuple[float, ...] = ()
    if len(conjs) >= 2:
        # selectivity is only *needed* to order; a single conjunct runs
        # as-is and skips the histogram work entirely
        stats = planner_stats(table)
        scored = sorted(
            (
                (selectivity(dequalify(conj, binding), stats), i, conj)
                for i, conj in enumerate(conjs)
            ),
            key=lambda item: (item[0], item[1]),
        )
        conjs = [conj for _, _, conj in scored]
        sels = tuple(sel for sel, _, _ in scored)
    residual = _rebuild_and(conjs)

    vec_flags = tuple(
        mask_compilable(conj, table.schema, binding) for conj in conjs
    )
    if all(vec_flags):
        mode = "vectorized"
    elif any(vec_flags):
        mode = "hybrid"
    else:
        mode = "row-fallback"

    return ScanPlan(
        table_name,
        binding,
        index=index,
        residual=residual,
        filters=tuple(conjs),
        filter_sels=sels,
        filter_vec=vec_flags,
        mode=mode,
    )


# ----------------------------------------------------------------------
# cost model: predicate selectivity and per-node row estimates
# ----------------------------------------------------------------------

def selectivity(expr: Expression | None, stats: PlannerStats) -> float:
    """Estimated matching fraction of the live rows, in ``[0, 1]``."""
    if expr is None:
        return 1.0
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        out = 1.0
        for part in conjuncts(expr):
            out *= selectivity(part, stats)
        return out
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        out = 0.0
        for part in disjuncts(expr):
            s = selectivity(part, stats)
            out = out + s - out * s
        return out
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return max(0.0, 1.0 - selectivity(expr.operand, stats))
    if isinstance(expr, Literal):
        return 1.0 if expr.value is True else 0.0
    return _atom_selectivity(expr, stats)


def _column_stats(stats: PlannerStats, name: str) -> ColumnStats | None:
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


def _equality_selectivity(expr: BinaryOp, stats: PlannerStats) -> float | None:
    """``1/distinct`` for ``col = const`` when the constant is in range."""
    column: ColumnRef | None = None
    literal: Literal | None = None
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
    inside = _in_range(literal.value, cs)
    if inside is None:
        return None
    return 1.0 / cs.distinct if inside else 0.0


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


def _in_range(value: Any, cs: ColumnStats) -> bool | None:
    """Is ``value`` inside the column's ``[min, max]``? ``None`` when
    the two do not compare."""
    try:
        if cs.min_value is not None and value < cs.min_value:
            return False
        if cs.max_value is not None and value > cs.max_value:
            return False
    except TypeError:
        return None
    return True


def _clamp(value: float, extent: int) -> int:
    return max(0, min(extent, round(value)))


def _scan_rows(scan: ScanPlan, stats: PlannerStats) -> int:
    """Estimated rows a scan emits: its index conjunct and residual
    together."""
    where = scan.residual
    if scan.index is not None:
        where = (
            scan.index.conjunct
            if where is None
            else BinaryOp("AND", scan.index.conjunct, where)
        )
    extent = stats.live_rows
    return _clamp(extent * selectivity(where, stats), extent)


def _residual_selectivity(
    residual: Expression | None,
    left: tuple[str, PlannerStats],
    right: tuple[str, PlannerStats],
) -> float:
    """Join-residual selectivity: per-side conjuncts use that side's
    histograms, cross-table conjuncts fall back to the default guess."""
    if residual is None:
        return 1.0
    out = 1.0
    for conj in conjuncts(residual):
        sel = DEFAULT_SELECTIVITY
        for binding, stats in (left, right):
            local = dequalify(conj, binding)
            if local is not None and all(
                ref.name in stats.schema for ref in local.column_refs()
            ):
                sel = selectivity(local, stats)
                break
        out *= sel
    return out


def _key_distinct(key: str, stats: PlannerStats) -> int:
    cs = _column_stats(stats, key.split(".")[-1])
    return 1 if cs is None else max(1, cs.distinct)


def _group_estimate(
    keys: tuple[str, ...], est_in: int, stats_by_binding: dict[str, PlannerStats]
) -> int:
    """Estimated group count: product of per-key distincts, capped."""
    if not keys:
        return 1
    if est_in <= 0:
        return 0
    groups = 1
    for key in keys:
        binding = key.split(".")[0] if "." in key else next(iter(stats_by_binding))
        stats = stats_by_binding.get(binding)
        if stats is None:
            stats = next(iter(stats_by_binding.values()))
        groups *= _key_distinct(key, stats)
    return max(1, min(est_in, groups))


def estimate(plan: SelectPlan | ScanPlan, catalog: Catalog) -> dict[str, int]:
    """Estimated output rows of every :func:`plan_nodes` kind of ``plan``.

    Computed on request, never at plan time: only EXPLAIN, EXPLAIN
    ANALYZE and the Tier-B consume analysis pay for the statistics.
    """
    if isinstance(plan, ScanPlan):
        stats = planner_stats(catalog.table(plan.table_name))
        return {"delete": _scan_rows(plan, stats)}
    est: dict[str, int] = {}
    source = plan.source
    stats_by_binding: dict[str, PlannerStats] = {}
    if isinstance(source, ScanPlan):
        stats = planner_stats(catalog.table(source.table_name))
        stats_by_binding[source.binding] = stats
        est["scan"] = est["consume"] = rows = _scan_rows(source, stats)
    else:
        left_stats = planner_stats(catalog.table(source.left.table_name))
        right_stats = planner_stats(catalog.table(source.right.table_name))
        stats_by_binding[source.left.binding] = left_stats
        stats_by_binding[source.right.binding] = right_stats
        distinct_keys = max(
            _key_distinct(source.left_key, left_stats),
            _key_distinct(source.right_key, right_stats),
        )
        cross = left_stats.live_rows * right_stats.live_rows
        est_match = cross / distinct_keys * _residual_selectivity(
            source.residual,
            (source.left.binding, left_stats),
            (source.right.binding, right_stats),
        )
        est["join"] = rows = _clamp(est_match, max(cross, 1))

    if plan.aggregate is not None:
        rows = _group_estimate(plan.aggregate.group_keys, rows, stats_by_binding)
        if plan.aggregate.having is not None:
            rows = max(1, _clamp(rows * DEFAULT_SELECTIVITY, rows))
        est["aggregate"] = rows
    est["sort"] = est["distinct"] = rows
    est["limit"] = rows if plan.limit is None else min(plan.limit, rows)
    return est


# ----------------------------------------------------------------------
# aggregate analysis
# ----------------------------------------------------------------------

def _find_aggregates(expr: Expression) -> list[FuncCall]:
    """All aggregate FuncCall nodes in ``expr`` (not descending into them)."""
    if isinstance(expr, FuncCall) and is_aggregate(expr.name):
        return [expr]
    return [agg for child in expr.children() for agg in _find_aggregates(child)]


def _non_aggregate_refs(expr: Expression) -> list[ColumnRef]:
    """Column refs that appear outside any aggregate call."""
    if isinstance(expr, FuncCall) and is_aggregate(expr.name):
        return []
    if isinstance(expr, ColumnRef):
        return [expr]
    return [ref for child in expr.children() for ref in _non_aggregate_refs(child)]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def plan_select(stmt: SelectStmt, catalog: Catalog) -> SelectPlan:
    """Validate ``stmt`` against ``catalog`` and build its plan."""
    scope = _Scope()
    base_table = catalog.table(stmt.table.name)  # raises CatalogError if unknown
    scope.add(stmt.table, base_table.schema)

    join_plan: JoinPlan | None = None
    if stmt.join is not None:
        if stmt.consume:
            raise PlanError("JOIN is not supported in CONSUME SELECT (Law 2 is per-relation)")
        right_table = catalog.table(stmt.join.table.name)
        scope.add(stmt.join.table, right_table.schema)

    # expand and validate projections
    projections = _expand_projections(stmt, scope)
    for proj in projections:
        scope.validate_expression(proj.expr)
    if stmt.where is not None:
        scope.validate_expression(stmt.where)
        if _find_aggregates(stmt.where):
            raise PlanError("aggregates are not allowed in WHERE (use HAVING)")

    # ORDER BY may name projection aliases; rewrite those to the
    # underlying expressions so sorting can run before projection.
    aliases = {
        p.alias: p.expr for p in projections if p.alias is not None
    }
    order_by = tuple(
        OrderItem(aliases[item.expr.name], item.ascending)
        if isinstance(item.expr, ColumnRef)
        and item.expr.table is None
        and item.expr.name in aliases
        else item
        for item in stmt.order_by
    )
    for item in order_by:
        scope.validate_expression(item.expr)

    # aggregation
    aggregate_plan = _plan_aggregation(stmt, projections, scope, order_by)

    # scans & index choice (indexes only help single-table unqualified predicates)
    if stmt.join is None:
        index, residual = _choose_index(catalog, stmt.table.name, stmt.where)
        source: ScanPlan | JoinPlan = _build_scan(
            catalog, stmt.table.name, stmt.table.binding, index, residual
        )
    else:
        left_scan = _build_scan(
            catalog, stmt.table.name, stmt.table.binding, None, None
        )
        right_scan = _build_scan(
            catalog, stmt.join.table.name, stmt.join.table.binding, None, None
        )
        left_key, right_key = _resolve_join_keys(stmt.join, stmt.table, scope)
        join_plan = JoinPlan(left_scan, right_scan, left_key, right_key, residual=stmt.where)
        source = join_plan

    output_columns = tuple(p.output_name for p in projections)
    if len(set(output_columns)) != len(output_columns):
        raise PlanError(f"duplicate output column names: {list(output_columns)}")

    return SelectPlan(
        source=source,
        projections=projections,
        output_columns=output_columns,
        aggregate=aggregate_plan,
        order_by=order_by,
        limit=stmt.limit,
        consume=stmt.consume,
        distinct=stmt.distinct,
    )


def _expand_projections(stmt: SelectStmt, scope: _Scope) -> tuple[Projection, ...]:
    """Expand ``*`` into explicit per-column projections."""
    out: list[Projection] = []
    for proj in stmt.projections:
        if isinstance(proj.expr, Star):
            if len(stmt.projections) != 1:
                raise PlanError("'*' cannot be combined with other projections")
            if stmt.group_by:
                raise PlanError("'*' is not allowed with GROUP BY")
            for binding, schema in scope.bindings.items():
                qualify = len(scope.bindings) > 1
                for name in schema.names:
                    ref = ColumnRef(name, table=binding if qualify else None)
                    alias = f"{binding}_{name}" if qualify else None
                    out.append(Projection(ref, alias))
        else:
            out.append(proj)
    return tuple(out)


def _plan_aggregation(
    stmt: SelectStmt,
    projections: tuple[Projection, ...],
    scope: _Scope,
    order_by: tuple[OrderItem, ...] = (),
) -> AggregatePlan | None:
    proj_aggregates: list[FuncCall] = []
    for proj in projections:
        proj_aggregates.extend(_find_aggregates(proj.expr))
    having_aggregates = _find_aggregates(stmt.having) if stmt.having else []
    order_aggregates: list[FuncCall] = []
    for item in order_by:
        order_aggregates.extend(_find_aggregates(item.expr))
    if not stmt.group_by and not proj_aggregates and not having_aggregates:
        if stmt.having is not None:
            raise PlanError("HAVING requires GROUP BY or aggregates")
        if order_aggregates:
            raise PlanError("aggregates in ORDER BY require GROUP BY or aggregated SELECT")
        return None

    group_keys = []
    group_names = []
    for col in stmt.group_by:
        group_keys.append(scope.resolve(col))
        group_names.append(col.name)

    # every bare column in projections/HAVING must be a group key
    allowed = set(group_names) | set(group_keys)
    check_exprs: list[Expression] = [p.expr for p in projections]
    if stmt.having is not None:
        scope.validate_expression(stmt.having)
        check_exprs.append(stmt.having)
    check_exprs.extend(item.expr for item in order_by)
    for expr in check_exprs:
        for ref in _non_aggregate_refs(expr):
            if ref.name not in allowed and ref.key not in allowed:
                raise PlanError(
                    f"column {ref.to_sql()!r} must appear in GROUP BY or inside an aggregate"
                )

    # validate arities, then deduplicate aggregate calls by rendered SQL
    seen: dict[str, FuncCall] = {}
    for agg in proj_aggregates + having_aggregates + order_aggregates:
        if not agg.star:
            expected = aggregate_arity(agg.name)
            if len(agg.args) != expected:
                raise PlanError(
                    f"{agg.name}() takes {expected} argument(s), got {len(agg.args)}"
                )
        seen.setdefault(agg.to_sql(), agg)
    return AggregatePlan(
        group_keys=tuple(group_keys),
        group_names=tuple(group_names),
        aggregates=tuple(seen.values()),
        having=stmt.having,
    )


def _resolve_join_keys(
    join: JoinClause, base: TableRef, scope: _Scope
) -> tuple[str, str]:
    """Map the ON clause to (left-side key, right-side key)."""
    left_key = scope.resolve(join.left)
    right_key = scope.resolve(join.right)
    right_binding = join.table.binding

    def side(ref: ColumnRef, key: str) -> str:
        owner = ref.table or key.split(".")[0]
        return "right" if owner == right_binding else "left"

    sides = {side(join.left, left_key): left_key, side(join.right, right_key): right_key}
    if set(sides) != {"left", "right"}:
        raise PlanError("JOIN ON must compare one column from each table")
    return sides["left"], sides["right"]


def plan_delete(stmt: DeleteStmt, catalog: Catalog) -> ScanPlan:
    """Validate a DELETE and return the scan that finds its victims."""
    table = catalog.table(stmt.table)
    scope = _Scope()
    scope.add(TableRef(stmt.table), table.schema)
    if stmt.where is not None:
        scope.validate_expression(stmt.where)
        if _find_aggregates(stmt.where):
            raise PlanError("aggregates are not allowed in DELETE ... WHERE")
    index, residual = _choose_index(catalog, stmt.table, stmt.where)
    return _build_scan(catalog, stmt.table, stmt.table, index, residual)


def plan_insert(stmt: InsertStmt, catalog: Catalog) -> tuple[str, tuple[str, ...]]:
    """Validate an INSERT; returns (table name, target column names).

    Values must be constant expressions: anything referencing a column
    is rejected here, so evaluation later cannot surprise.
    """
    table = catalog.table(stmt.table)
    columns = stmt.columns or table.schema.names
    for name in columns:
        if name not in table.schema:
            raise PlanError(f"table {stmt.table!r} has no column {name!r}")
    if len(set(columns)) != len(columns):
        raise PlanError(f"duplicate INSERT columns: {list(columns)}")
    for row in stmt.rows:
        if len(row) != len(columns):
            raise PlanError(
                f"INSERT row has {len(row)} values for {len(columns)} columns"
            )
        for value in row:
            if value.column_refs():
                raise PlanError(
                    f"INSERT values must be constants, got {value.to_sql()}"
                )
            if _find_aggregates(value):
                raise PlanError("aggregates are not allowed in INSERT values")
    return stmt.table, tuple(columns)


def render_scan(scan: ScanPlan) -> str:
    """The (possibly multi-line) description of a base-table scan.

    Line 1 keeps the historical shape; detail lines are indented so
    EXPLAIN ANALYZE's per-node annotation can splice stats after them.
    """
    access = scan.index.describe() if scan.index else "full scan"
    residual = scan.residual.to_sql() if scan.residual else "none"
    lines = [f"scan {scan.table_name} via {access}; residual {residual}"]
    lines.append(f"  mode: {scan.mode}")
    if scan.filter_sels:
        ordered = " -> ".join(
            f"{conj.to_sql()} [sel {sel:.2f}]"
            for conj, sel in zip(scan.filters, scan.filter_sels)
        )
        lines.append(f"  filters: {ordered}")
    return "\n".join(lines)


def render_join(join: JoinPlan) -> str:
    """The one-line description of a hash equi-join."""
    residual = join.residual.to_sql() if join.residual else "none"
    return (
        f"hash join {join.left.table_name} x {join.right.table_name} "
        f"on {join.left_key} = {join.right_key}; residual {residual}"
    )


def plan_nodes(plan: SelectPlan | ScanPlan) -> list[tuple[str, str]]:
    """The plan's operators as ``(kind, label)``, in execution order.

    The one list ``EXPLAIN`` prints, ``EXPLAIN ANALYZE`` annotates and
    the executor runs: scan|join, aggregate, sort, distinct, limit,
    consume — or the single ``delete`` node of the bare
    :class:`ScanPlan` that :func:`plan_delete` produces.
    """
    if isinstance(plan, ScanPlan):
        label = (
            render_scan(plan)
            + "\nDELETE: matching base rows are removed (no distillation)"
        )
        return [("delete", label)]
    source = plan.source
    if isinstance(source, ScanPlan):
        nodes = [("scan", render_scan(source))]
    else:
        nodes = [("join", render_join(source))]
    if plan.aggregate:
        nodes.append((
            "aggregate",
            f"aggregate by {list(plan.aggregate.group_names) or 'ALL'} "
            f"computing {[a.to_sql() for a in plan.aggregate.aggregates]}",
        ))
    if plan.order_by:
        nodes.append(("sort", f"sort by {[o.to_sql() for o in plan.order_by]}"))
    if plan.distinct:
        nodes.append(("distinct", "distinct over output columns"))
    if plan.limit is not None:
        nodes.append(("limit", f"limit {plan.limit}"))
    if plan.consume:
        nodes.append(("consume", "CONSUME: matching base rows are deleted (Law 2)"))
    return nodes


def render_plan(
    plan: SelectPlan | ScanPlan, estimates: Mapping[str, int] | None = None
) -> list[str]:
    """Human-readable plan lines; with ``estimates`` (what ``EXPLAIN``
    prints) each node's label is followed by its ``est`` line."""
    lines: list[str] = []
    for kind, label in plan_nodes(plan):
        lines.extend(label.splitlines())
        if estimates is not None:
            lines.append(f"  rows: est {estimates[kind]}")
    return lines
