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
none compiles (``row-fallback``). There is one storage backend, so the
mode depends on the predicates and the schema, never on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import PlanError
from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    DeleteStmt,
    Expression,
    FuncCall,
    InsertStmt,
    JoinClause,
    Literal,
    OrderItem,
    Projection,
    SelectStmt,
    Star,
    TableRef,
    rewrite_leaves,
)
from repro.query.functions import aggregate_arity, is_aggregate
from repro.query.masks import mask_compilable
from repro.query.normalize import IntervalSet, conjuncts, numeric_atom
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.storage.stats import planner_stats


@dataclass(frozen=True)
class IndexAccess:
    """How the scan will use an index instead of a full pass."""

    kind: str  # "hash-eq" | "sorted-range"
    column: str
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
class PrunePlan:
    """Freshness-aware span pruning decision for one scan.

    The residual rules out ``f == 1.0``, and the storage invariant says
    every live row outside the table's rot dirty-map spans holds
    exactly 1.0 — so the scan only visits live rows *inside* the spans
    and the cost model charges only that footprint.
    """

    column: str  # the table's freshness column
    predicate: str  # SQL of the conjunct that justified pruning


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
    prune: PrunePlan | None = None
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
                return IndexAccess("hash-eq", column, eq_value=value), residual
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
                    low=conj.low.value,
                    high=conj.high.value,
                ),
                residual,
            )
    return None, where


# ----------------------------------------------------------------------
# scan finalization: filter order, span pruning, execution mode
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
    estimated selectivity, decide freshness span pruning, and stamp the
    mask-vs-row mode per conjunct."""
    table = catalog.table(table_name)
    conjs = conjuncts(residual)
    sels: tuple[float, ...] = ()
    if len(conjs) >= 2:
        # selectivity is only *needed* to order; a single conjunct runs
        # as-is and skips the histogram work entirely
        from repro.lint.analyze import predicate_selectivity

        stats = planner_stats(table)
        scored = sorted(
            (
                (predicate_selectivity(dequalify(conj, binding), stats), i, conj)
                for i, conj in enumerate(conjs)
            ),
            key=lambda item: (item[0], item[1]),
        )
        conjs = [conj for _, _, conj in scored]
        sels = tuple(sel for sel, _, _ in scored)
    residual = _rebuild_and(conjs)

    prune: PrunePlan | None = None
    if index is None and table.freshness_column is not None:
        for conj in conjs:
            local = dequalify(conj, binding)
            atom = numeric_atom(local) if local is not None else None
            if (
                atom is not None
                and atom[0] == table.freshness_column
                and atom[1].intersect(IntervalSet.point(1.0)).is_empty()
            ):
                # rows outside the rot dirty-map hold f == 1.0 exactly,
                # which this conjunct rules out — scan only the spans
                prune = PrunePlan(table.freshness_column, conj.to_sql())
                break

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
        prune=prune,
        mode=mode,
    )


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
    if scan.prune is not None:
        lines.append(
            f"  prune: rot spans of {scan.prune.column} only "
            f"({scan.prune.predicate} rules out {scan.prune.column} = 1.0)"
        )
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


def render_plan(plan: SelectPlan | ScanPlan) -> list[str]:
    """Human-readable plan lines (``EXPLAIN`` and the shell)."""
    return [
        line for _, label in plan_nodes(plan) for line in label.splitlines()
    ]
