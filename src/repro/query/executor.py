"""Query execution: glue from SQL text to a :class:`ResultSet`.

:class:`QueryEngine` is the public entry point the decay core and the
examples use::

    engine = QueryEngine(catalog)
    result = engine.execute("SELECT region, count(*) FROM r GROUP BY region")

``CONSUME SELECT`` implements the paper's second law: after the answer
set is built, every base-table row satisfying the WHERE predicate is
deleted — *all* of them, even when LIMIT truncates the visible answer,
because the law replaces the extent of R by ``R − σ_P(R)`` regardless
of what the user chose to look at.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence, Sized

from repro.errors import ConsumeError
from repro.obs.profile import PROFILER
from repro.query.ast_nodes import (
    DeleteStmt,
    ExplainStmt,
    InsertStmt,
    SelectStmt,
    Statement,
)
from repro.query.expressions import evaluate
from repro.query.opstats import (
    OperatorStats,
    PlanInstrumentation,
    instrument_delete,
    instrument_select,
    render_analyzed,
)
from repro.query.parser import parse
from repro.query.planner import (
    JoinPlan,
    ScanPlan,
    SelectPlan,
    plan_delete,
    plan_insert,
    plan_select,
    render_plan,
)

if TYPE_CHECKING:
    from repro.lint.analyze import ConsumeAnalyzer, ConsumeReport, DomainsProvider
from repro.obs.tracing import NULL_TRACER
from repro.query import operators as ops
from repro.query.result import ExecutionStats, ResultSet
from repro.storage.catalog import Catalog
from repro.storage.rowset import RowSet

ConsumeHook = Callable[[str, RowSet], None]
InsertDelegate = Callable[[Sequence[Mapping[str, Any]]], Any]


@dataclass(frozen=True)
class QueryRecord:
    """One executed statement, as reported to statistics hooks.

    ``statement`` is the executed AST (for ``EXPLAIN ANALYZE`` the
    *inner* statement, since that is what ran); ``misestimation`` is
    the worst per-operator q-error when instrumentation ran, ``None``
    for ordinary executions (which carry no estimates).
    """

    statement: Statement
    kind: str
    rows: int
    rows_consumed: int
    seconds: float
    misestimation: float | None = None


StatsHook = Callable[[QueryRecord], None]


def _step(
    node: OperatorStats | None, op: Callable[..., Any], rows: Any = (), *args: Any
) -> Any:
    """Run one plan operator: ``op(rows, *args)``, observed when ``node`` is set.

    Without a collector this *is* the operator call — whatever lazy iterator
    the operator returns, untouched, so the ordinary path stays a
    generator chain. With one (EXPLAIN ANALYZE) the input and output
    are materialized around the call, so the node records its own
    ``rows_in``/``rows_out``/``seconds`` and nothing of its neighbours'.
    Sources take no row input: they count their candidates through the
    ``collect`` argument of the operator itself.
    """
    if node is None:
        return op(rows, *args)
    if not isinstance(rows, Sized):
        rows = list(rows)
    started = PROFILER.time()
    out = op(rows, *args)
    if not isinstance(out, Sized):
        out = list(out)
    node.seconds += PROFILER.time() - started
    node.rows_in += len(rows)
    node.rows_out = len(out)
    return out


class QueryEngine:
    """Executes SELECT / CONSUME SELECT statements against a catalog.

    ``consume_hooks`` run *before* consumed rows are deleted — the decay
    core uses this to distill outgoing rows into summaries (the paper's
    "inspect them once before removal").
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.tracer = NULL_TRACER
        #: SQL text of the statement currently executing (None outside
        #: execute()); consume hooks read it so Law-2 death provenance
        #: records the consuming query verbatim.
        self.current_sql: str | None = None
        #: who is running the current statement (a server session id);
        #: death provenance appends it to the consuming-query text so
        #: forensics can attribute a consume to a network principal
        self.current_actor: str | None = None
        #: refuse statements the Tier-B analyzer proves would consume
        #: the entire extent (FungusDB's ``strict_consume`` option)
        self.strict_consume = False
        #: table-name -> column-domain mapping fed to the analyzer
        #: (FungusDB supplies the freshness invariant f in [0, 1])
        self.consume_domains: "DomainsProvider | None" = None
        self._analyzer: "ConsumeAnalyzer | None" = None
        self._consume_hooks: list[ConsumeHook] = []
        self._access_hooks: list[ConsumeHook] = []
        self._explain_hooks: list[Callable[["ConsumeReport"], None]] = []
        self._stats_hooks: list[StatsHook] = []
        self._insert_delegates: dict[str, InsertDelegate] = {}
        self._insert_default_columns: dict[str, tuple[str, ...]] = {}
        #: instrumentation of the most recent EXPLAIN ANALYZE, read by
        #: the stats-hook record builder within the same execute() call
        self._last_instr: PlanInstrumentation | None = None

    def add_consume_hook(self, hook: ConsumeHook) -> None:
        """Register a callback ``(table_name, consumed_rowset) -> None``."""
        self._consume_hooks.append(hook)

    def add_access_hook(self, hook: ConsumeHook) -> None:
        """Register ``(table_name, matched_rowset)`` called on every
        single-table query — the access-refresh fungus feeds off this."""
        self._access_hooks.append(hook)

    def register_insert_delegate(
        self,
        table_name: str,
        delegate: InsertDelegate,
        columns: tuple[str, ...] | None = None,
    ) -> None:
        """Hand each ``INSERT INTO table_name`` statement's rows, as one
        batch, to ``delegate``.

        FungusDB registers each decaying table's :meth:`insert_many` here
        so SQL inserts get stamped with ``t = now`` and ``f = 1.0`` instead
        of having to supply the reserved columns explicitly. ``columns``
        is the default column list for INSERTs that omit one (a decaying
        table's attributes, without t/f).
        """
        self._insert_delegates[table_name] = delegate
        if columns is not None:
            self._insert_default_columns[table_name] = tuple(columns)

    def add_explain_hook(self, hook: "Callable[[ConsumeReport], None]") -> None:
        """Run ``hook(report)`` after every Tier-B consume analysis
        (both ``EXPLAIN CONSUME`` and the strict-consume gate) — the
        decay core publishes a ``ConsumeAnalyzed`` event from here."""
        self._explain_hooks.append(hook)

    def add_stats_hook(self, hook: StatsHook) -> None:
        """Run ``hook(record)`` after every *executing* statement —
        SELECT, CONSUME, INSERT, DELETE, and the inner statement of an
        ``EXPLAIN ANALYZE`` (plain ``EXPLAIN`` runs nothing and is not
        reported). The query-statistics store feeds off this; with no
        hooks registered the execute path does not even read the
        clock."""
        self._stats_hooks.append(hook)

    @property
    def analyzer(self) -> "ConsumeAnalyzer":
        """The Tier-B consume analyzer bound to this engine's catalog."""
        if self._analyzer is None:
            from repro.lint.analyze import ConsumeAnalyzer

            self._analyzer = ConsumeAnalyzer(
                self.catalog, domains_provider=self.consume_domains
            )
        return self._analyzer

    def analyze_consume(self, statement: "str | SelectStmt") -> "ConsumeReport":
        """Statically analyze a consume statement; nothing is executed."""
        report = self.analyzer.analyze(statement)
        for hook in self._explain_hooks:
            hook(report)
        return report

    def execute(self, query: str | Statement) -> ResultSet:
        """Parse (if needed), plan, and run one statement."""
        stmt = parse(query) if isinstance(query, str) else query
        kind = stmt.kind
        self.current_sql = query if isinstance(query, str) else None
        self._last_instr = None
        started = PROFILER.time() if self._stats_hooks else 0.0
        try:
            with self.tracer.span("query", kind=kind) as span:
                if isinstance(stmt, ExplainStmt):
                    result = self._run_explain(stmt)
                elif isinstance(stmt, InsertStmt):
                    result = self._run_insert(stmt)
                elif isinstance(stmt, DeleteStmt):
                    result = self._run_delete(stmt)
                else:
                    if stmt.consume and self.strict_consume:
                        self._enforce_strict_consume(stmt)
                    plan = plan_select(stmt, self.catalog)
                    result = self._run(plan)
                span.set(
                    rows=len(result),
                    rows_scanned=result.stats.rows_scanned,
                    rows_matched=result.stats.rows_matched,
                    rows_consumed=result.stats.rows_consumed,
                )
                if self._stats_hooks:
                    self._record_statement(
                        stmt, kind, result, PROFILER.time() - started
                    )
                return result
        finally:
            self.current_sql = None

    def _record_statement(
        self, stmt: Statement, kind: str, result: ResultSet, seconds: float
    ) -> None:
        """Report one executed statement to the stats hooks."""
        if isinstance(stmt, ExplainStmt):
            if not stmt.analyze:
                return  # plain EXPLAIN executes nothing — nothing to record
            stmt = stmt.inner
            kind = stmt.kind
        instr = self._last_instr
        record = QueryRecord(
            statement=stmt,
            kind=kind,
            # an analyzed statement's ResultSet holds the rendered plan
            # lines; the instrumentation carries the real row count
            rows=instr.result_rows if instr is not None else len(result),
            rows_consumed=result.stats.rows_consumed,
            seconds=seconds,
            misestimation=(
                instr.worst_misestimation() if instr is not None else None
            ),
        )
        for hook in self._stats_hooks:
            hook(record)

    def explain(self, query: str | SelectStmt) -> SelectPlan:
        """Return the SELECT plan without executing (tests, curiosity)."""
        stmt = parse(query) if isinstance(query, str) else query
        assert isinstance(stmt, SelectStmt), "explain() covers SELECT only"
        return plan_select(stmt, self.catalog)

    # ------------------------------------------------------------------

    def _run_explain(self, stmt: ExplainStmt) -> ResultSet:
        """Plain EXPLAIN never executes; EXPLAIN ANALYZE runs the
        statement with every operator instrumented."""
        if stmt.analyze:
            return self._run_explain_analyze(stmt)
        inner = stmt.inner
        if isinstance(inner, DeleteStmt):
            lines = render_plan(plan_delete(inner, self.catalog))
        elif inner.consume:
            report = self.analyze_consume(inner)
            lines = report.describe().splitlines()
        else:
            lines = render_plan(plan_select(inner, self.catalog))
        return ResultSet(columns=("explain",), rows=[(line,) for line in lines])

    def _run_explain_analyze(self, stmt: ExplainStmt) -> ResultSet:
        """Execute the wrapped statement — CONSUME/DELETE really remove
        rows — and return the annotated plan instead of its rows."""
        inner = stmt.inner
        started = PROFILER.time()
        report: "ConsumeReport | None" = None
        if isinstance(inner, DeleteStmt):
            plan = plan_delete(inner, self.catalog)
            instr = instrument_delete(plan, self.catalog)
            result = self._delete_by_plan(inner, plan, instr)
        else:
            if inner.consume:
                # pre-execution Tier-B verdict: the extent is still intact
                report = self.analyze_consume(inner)
                if self.strict_consume:
                    self._enforce_strict_consume(inner, report)
            select_plan = plan_select(inner, self.catalog)
            instr = instrument_select(select_plan, self.catalog)
            result = self._run(select_plan, instr)
        instr.total_seconds = PROFILER.time() - started
        instr.result_rows = len(result)
        if report is not None:
            instr.consume_verdict = report.verdict
        self._last_instr = instr
        lines = render_analyzed(instr)
        if report is not None:
            lines.insert(
                len(lines) - 1, f"Tier-B consume verdict: {report.verdict}"
            )
        return ResultSet(
            columns=("explain",),
            rows=[(line,) for line in lines],
            consumed=result.consumed,
            stats=result.stats,
        )

    def _enforce_strict_consume(
        self, stmt: SelectStmt, report: "ConsumeReport | None" = None
    ) -> None:
        """Refuse a consume the analyzer proves eats the whole extent."""
        if report is None:
            report = self.analyze_consume(stmt)
        if report.is_total:
            raise ConsumeError(
                f"strict_consume: {report.sql!r} would consume the entire "
                f"extent of {report.table!r} ({report.extent} rows); narrow "
                f"the WHERE clause or use EXPLAIN CONSUME to inspect it"
            )

    def _run_insert(self, stmt: InsertStmt) -> ResultSet:
        if not stmt.columns and stmt.table in self._insert_default_columns:
            stmt = dataclasses.replace(
                stmt, columns=self._insert_default_columns[stmt.table]
            )
        table_name, columns = plan_insert(stmt, self.catalog)
        # every VALUES row is evaluated before any is written, and the
        # statement goes in as one batch: all of its rows or none
        rows = [
            {name: evaluate(expr, {}) for name, expr in zip(columns, value_row)}
            for value_row in stmt.rows
        ]
        write = self._insert_delegates.get(
            table_name, self.catalog.table(table_name).append_many
        )
        write(rows)
        return ResultSet(columns=("inserted",), rows=[(len(rows),)])

    def _run_delete(self, stmt: DeleteStmt) -> ResultSet:
        return self._delete_by_plan(stmt, plan_delete(stmt, self.catalog), None)

    def _delete_by_plan(
        self,
        stmt: DeleteStmt,
        plan: ScanPlan,
        instr: PlanInstrumentation | None,
    ) -> ResultSet:
        stats = ExecutionStats()
        node = instr.node("delete") if instr is not None else None

        def delete(_: Any) -> RowSet:
            victims = RowSet(ops.scan_rids(plan, self.catalog, stats, node))
            self.catalog.table(stmt.table).delete_rows(victims)
            return victims

        victims = _step(node, delete)
        return ResultSet(columns=("deleted",), rows=[(len(victims),)], stats=stats)

    # ------------------------------------------------------------------

    def _run(
        self, plan: SelectPlan, instr: PlanInstrumentation | None = None
    ) -> ResultSet:
        """Drive ``plan``'s operators in :func:`plan_nodes` order, each
        through :func:`_step` — EXPLAIN ANALYZE runs this same code."""
        stats = ExecutionStats()
        consumed = RowSet.empty()
        source = plan.source
        aggregate = plan.aggregate
        count_only = ops.is_count_star_only(aggregate)

        def node(kind: str) -> OperatorStats | None:
            return instr.node(kind) if instr is not None else None

        def scan(_: Any) -> list[Any]:
            nonlocal consumed
            assert isinstance(source, ScanPlan)
            rids = ops.scan_rids(source, self.catalog, stats, node("scan"))
            if self._access_hooks and rids:
                matched = RowSet(rids)
                for hook in self._access_hooks:
                    hook(source.table_name, matched)
            if plan.consume:
                consumed = RowSet(rids)
            if count_only:
                # late materialization's endgame: a pure count(*) needs
                # no contexts at all, only the surviving rid count
                return rids
            table = self.catalog.table(source.table_name)
            return ops.materialize(table, source.binding, rids)

        def join(_: Any) -> list[ops.RowContext]:
            assert isinstance(source, JoinPlan)
            joined = ops.hash_join(source, self.catalog, stats, node("join"))
            if source.residual is not None:
                joined = ops.apply_filter(
                    joined, source.residual, stats, node("join")
                )
            return list(joined)

        def consume(victims: RowSet) -> RowSet:
            # Law 2 is per-relation: the planner admits no CONSUME over a join
            assert isinstance(source, ScanPlan)
            table_name = source.table_name
            with self.tracer.span("consume", table=table_name, rows=len(victims)):
                for hook in self._consume_hooks:
                    hook(table_name, victims)
                ops.consume_rows(self.catalog.table(table_name), victims)
            return victims

        if isinstance(source, ScanPlan):
            rows = _step(node("scan"), scan)
        else:
            rows = _step(node("join"), join)
        stats.rows_matched = len(rows)

        if aggregate is not None:
            grouper = ops.count_star_group if count_only else ops.aggregate
            rows = _step(node("aggregate"), grouper, rows, aggregate)
        if plan.order_by:
            rows = _step(node("sort"), ops.sort_rows, rows, plan.order_by)
        rows = ops.project(rows, plan.projections)
        if plan.distinct:
            rows = _step(node("distinct"), ops.distinct, rows)
        if plan.limit is not None:
            rows = _step(node("limit"), ops.limit, rows, plan.limit)
        out_rows = list(rows)

        if consumed:
            _step(node("consume"), consume, consumed)
            stats.rows_consumed = len(consumed)

        return ResultSet(
            columns=plan.output_columns,
            rows=out_rows,
            consumed=consumed,
            stats=stats,
        )
