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

``DELETE`` and ``CONSUME`` hand their victims, as one :class:`RowSet`,
and a cause (``"external"`` or ``"consume"``) to the table's delete
delegate; the decay core registers one per relation, beside its insert
delegate, so every tuple leaves through the relation's own exit. A table
without one (a plain storage table) is deleted from directly.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Sized

from repro.errors import ConsumeError
from repro.query.analyze import ConsumeAnalyzer, ConsumeReport, DomainsProvider
from repro.query.ast_nodes import (
    DeleteStmt,
    ExplainStmt,
    InsertStmt,
    SelectStmt,
    Statement,
)
from repro.query.expressions import evaluate
from repro.query.opstats import OperatorStats, PlanInstrumentation, render_analyzed
from repro.query.parser import parse
from repro.query.planner import (
    JoinPlan,
    ScanPlan,
    SelectPlan,
    estimate,
    plan_delete,
    plan_insert,
    plan_select,
    render_plan,
)
from repro.obs.tracing import Tracer
from repro.query import operators as ops
from repro.query.result import ExecutionStats, ResultSet
from repro.storage.catalog import Catalog
from repro.storage.rowset import RowSet

AccessHook = Callable[[str, RowSet], None]
InsertDelegate = Callable[[Sequence[Mapping[str, Any]]], Any]
DeleteDelegate = Callable[[RowSet, str], Any]
AnswerCheck = Callable[[ResultSet], None]

#: the wall time an ``EXPLAIN ANALYZE`` CONSUME or DELETE plan is sized
#: with for the parts not yet measured when it is checked: wider than any
#: real run prints
_WIDEST_SECONDS = 1e6


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


class QueryEngine:
    """Executes SELECT / CONSUME SELECT statements against a catalog.

    Consumed rows go to the table's delete delegate — the decay core
    distils them into summaries there (the paper's "inspect them once
    before removal") before they leave.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self.tracer = Tracer(max_finished=0)
        #: SQL text of the statement currently executing (None outside
        #: execute()); delete delegates read it so Law-2 death
        #: provenance records the consuming query verbatim.
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
        self.consume_domains: DomainsProvider | None = None
        #: called with a CONSUME's answer once it is built and before
        #: anything is deleted (the server sizes its reply here); a
        #: raise aborts the statement with nothing eaten
        self.answer_check: AnswerCheck | None = None
        self._access_hooks: list[AccessHook] = []
        self._explain_hooks: list[Callable[[ConsumeReport], None]] = []
        self._stats_hooks: list[StatsHook] = []
        self._insert_delegates: dict[str, InsertDelegate] = {}
        self._delete_delegates: dict[str, DeleteDelegate] = {}
        self._insert_default_columns: dict[str, tuple[str, ...]] = {}
        #: instrumentation of the most recent EXPLAIN ANALYZE, read by
        #: the stats-hook record builder within the same execute() call
        self._last_instr: PlanInstrumentation | None = None

    def add_access_hook(self, hook: AccessHook) -> None:
        """Register ``(table_name, matched_rowset)`` called on every
        single-table query — the access-refresh fungus feeds off this."""
        self._access_hooks.append(hook)

    def register_delegates(
        self,
        table_name: str,
        insert: InsertDelegate,
        delete: DeleteDelegate,
        columns: tuple[str, ...],
    ) -> None:
        """Hand each ``INSERT INTO table_name`` statement's rows, as one
        batch, to ``insert``, and each ``DELETE``/``CONSUME`` statement's
        victims to ``delete(victims, cause)``.

        FungusDB registers each decaying table's :meth:`insert_many` here
        so SQL inserts get stamped with ``t = now`` and ``f = 1.0`` instead
        of having to supply the reserved columns explicitly, and a delete
        delegate that distils consumed rows and evicts with the cause.
        ``columns`` is the default column list for INSERTs that omit one
        (a decaying table's attributes, without t/f).
        """
        self._insert_delegates[table_name] = insert
        self._delete_delegates[table_name] = delete
        self._insert_default_columns[table_name] = tuple(columns)

    def drop_delegates(self, table_name: str) -> None:
        """Forget a dropped table's delegates, so a table registered
        later under the same name is written to directly."""
        self._insert_delegates.pop(table_name, None)
        self._delete_delegates.pop(table_name, None)
        self._insert_default_columns.pop(table_name, None)

    def add_explain_hook(self, hook: Callable[[ConsumeReport], None]) -> None:
        """Run ``hook(report)`` after every Tier-B consume analysis
        (both ``EXPLAIN CONSUME`` and the strict-consume gate) — the
        decay core publishes a ``ConsumeAnalyzed`` event from here."""
        self._explain_hooks.append(hook)

    def add_stats_hook(self, hook: StatsHook) -> None:
        """Run ``hook(record)`` after every *executing* statement —
        SELECT, CONSUME, INSERT, DELETE, and the inner statement of an
        ``EXPLAIN ANALYZE`` (plain ``EXPLAIN`` runs nothing and is not
        reported). The query-statistics store feeds off this; a
        record's ``seconds`` is the statement's ``query`` span."""
        self._stats_hooks.append(hook)

    def analyze_consume(self, statement: str | SelectStmt) -> ConsumeReport:
        """Statically analyze a consume statement; nothing is executed."""
        analyzer = ConsumeAnalyzer(self.catalog, self.consume_domains)
        report = analyzer.analyze(statement)
        for hook in self._explain_hooks:
            hook(report)
        return report

    def execute(self, query: str | Statement) -> ResultSet:
        """Parse (if needed), plan, and run one statement."""
        stmt = parse(query) if isinstance(query, str) else query
        kind = stmt.kind
        self.current_sql = query if isinstance(query, str) else None
        self._last_instr = None
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
                    result = self._run(plan, check=self.answer_check)
                span.set(
                    rows=len(result),
                    rows_scanned=result.stats.rows_scanned,
                    rows_matched=result.stats.rows_matched,
                    rows_consumed=result.stats.rows_consumed,
                )
            if self._stats_hooks:
                self._record_statement(stmt, kind, result, span.duration)
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

    # ------------------------------------------------------------------

    def _run_explain(self, stmt: ExplainStmt) -> ResultSet:
        """Plain EXPLAIN never executes: it prints the plan with each
        node's estimate, or the Tier-B report of a consume. EXPLAIN
        ANALYZE runs the statement with every operator instrumented."""
        if stmt.analyze:
            return self._run_explain_analyze(stmt)
        inner = stmt.inner
        if isinstance(inner, SelectStmt) and inner.consume:
            lines = self.analyze_consume(inner).describe().splitlines()
        else:
            plan = (
                plan_delete(inner, self.catalog)
                if isinstance(inner, DeleteStmt)
                else plan_select(inner, self.catalog)
            )
            lines = render_plan(plan, estimate(plan, self.catalog))
        return ResultSet(columns=("explain",), rows=[(line,) for line in lines])

    def _run_explain_analyze(self, stmt: ExplainStmt) -> ResultSet:
        """Execute the wrapped statement — CONSUME/DELETE really remove
        rows — and return the annotated plan instead of its rows."""
        inner = stmt.inner
        report: ConsumeReport | None = None
        with self.tracer.span("explain.analyze") as span:
            if isinstance(inner, DeleteStmt):
                plan = plan_delete(inner, self.catalog)
                instr = PlanInstrumentation(plan, estimate(plan, self.catalog))
                result = self._delete_by_plan(inner, plan, instr)
            else:
                if inner.consume:
                    # pre-execution Tier-B verdict: the extent is still intact
                    report = self.analyze_consume(inner)
                    if self.strict_consume:
                        self._enforce_strict_consume(inner, report)
                select_plan = plan_select(inner, self.catalog)
                instr = PlanInstrumentation(
                    select_plan, estimate(select_plan, self.catalog)
                )
                check = self.answer_check
                if check is not None:
                    check = _as_plan(check, instr, report, "consume")
                result = self._run(select_plan, instr, check)
        instr.total_seconds = span.duration
        instr.result_rows = len(result)
        self._last_instr = instr
        return _analyzed(instr, report, result)

    def _enforce_strict_consume(
        self, stmt: SelectStmt, report: ConsumeReport | None = None
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
        """Delete ``plan``'s matches. An ``EXPLAIN ANALYZE DELETE``
        (``instr`` set) answers with the plan, which the answer check
        sizes once the victims are known and before any is removed."""
        stats = ExecutionStats()
        node = instr.node("delete") if instr is not None else None
        check = None
        if instr is not None and self.answer_check is not None:
            check = _as_plan(self.answer_check, instr, None, "delete")

        def answer(victims: RowSet) -> ResultSet:
            return ResultSet(columns=("deleted",), rows=[(len(victims),)], stats=stats)

        def delete(_: Any) -> RowSet:
            victims = RowSet.from_sorted(
                tuple(ops.scan_rids(plan, self.catalog, stats, node))
            )
            if check is not None:
                check(answer(victims))
            self._remove(stmt.table, victims, "external")
            return victims

        return answer(self._step(node, delete))

    def _remove(self, table_name: str, victims: RowSet, cause: str) -> None:
        """Hand ``victims`` to the table's delete delegate, or delete
        them directly from a table that has none."""
        delegate = self._delete_delegates.get(table_name)
        if delegate is None:
            self.catalog.table(table_name).delete_rows(victims)
        else:
            delegate(victims, cause)

    # ------------------------------------------------------------------

    def _step(
        self,
        node: OperatorStats | None,
        op: Callable[..., Any],
        rows: Any = (),
        *args: Any,
    ) -> Any:
        """Run one plan operator: ``op(rows, *args)``, observed when ``node`` is set.

        Without a collector this *is* the operator call — whatever lazy
        iterator the operator returns, untouched, so the ordinary path
        stays a generator chain. With one (EXPLAIN ANALYZE) the input
        and output are materialized around the call, inside a
        ``plan.<kind>`` span, so the node records its own
        ``rows_in``/``rows_out`` and that span's duration as ``seconds``,
        and nothing of its neighbours'. Sources take no row input: they
        count their candidates through the ``collect`` argument of the
        operator itself.
        """
        if node is None:
            return op(rows, *args)
        if not isinstance(rows, Sized):
            rows = list(rows)
        with self.tracer.span(f"plan.{node.kind}") as span:
            out = op(rows, *args)
            if not isinstance(out, Sized):
                out = list(out)
        node.seconds += span.duration
        node.rows_in += len(rows)
        node.rows_out = len(out)
        return out

    def _run(
        self,
        plan: SelectPlan,
        instr: PlanInstrumentation | None = None,
        check: AnswerCheck | None = None,
    ) -> ResultSet:
        """Drive ``plan``'s operators in :func:`plan_nodes` order, each
        through :meth:`_step` — EXPLAIN ANALYZE runs this same code.

        ``check`` sees a consume's finished answer before anything is
        deleted; if it raises, nothing is eaten.
        """
        stats = ExecutionStats()
        matched = RowSet.empty()
        source = plan.source
        aggregate = plan.aggregate
        count_only = ops.is_count_star_only(aggregate)
        route: ops.ColumnRoute | None = None

        def node(kind: str) -> OperatorStats | None:
            return instr.node(kind) if instr is not None else None

        def scan(_: Any) -> list[Any]:
            nonlocal matched, route
            assert isinstance(source, ScanPlan)
            rids = ops.scan_rids(source, self.catalog, stats, node("scan"))
            if rids and (self._access_hooks or plan.consume):
                # ascending and unique, off the live mask or an index:
                # one unchecked RowSet serves the hooks and the consume
                matched = RowSet.from_sorted(tuple(rids))
            if count_only:
                # late materialization's endgame: a pure count(*) needs
                # no contexts at all, only the surviving rid count
                return rids
            table = self.catalog.table(source.table_name)
            if aggregate is None:
                route = ops.column_route(plan, table, rids)
                if route is not None:
                    return rids
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
                self._remove(table_name, victims, "consume")
            return victims

        if isinstance(source, ScanPlan):
            rows = self._step(node("scan"), scan)
        else:
            rows = self._step(node("join"), join)
        stats.rows_matched = len(rows)

        limit = plan.limit
        if route is not None:
            # rows are rids: order and cut them, then gather the answer
            if plan.order_by:
                rows = self._step(node("sort"), route.sort, rows)
            if limit is not None and not plan.distinct:
                rows = self._step(node("limit"), ops.limit_rids, rows, limit)
                limit = None
            rows = route.emit(rows)
        else:
            if aggregate is not None:
                grouper = ops.count_star_group if count_only else ops.aggregate
                rows = self._step(node("aggregate"), grouper, rows, aggregate)
            if plan.order_by:
                rows = self._step(node("sort"), ops.sort_rows, rows, plan.order_by)
            rows = ops.project(rows, plan.projections)
        if plan.distinct:
            rows = self._step(node("distinct"), ops.distinct, rows)
        if limit is not None:
            rows = self._step(node("limit"), ops.limit, rows, limit)
        consumed = matched if plan.consume else RowSet.empty()
        result = ResultSet(
            columns=plan.output_columns,
            rows=list(rows),
            consumed=consumed,
            stats=stats,
        )
        if consumed:
            stats.rows_consumed = len(consumed)
            if check is not None:
                check(result)
        if matched:
            # only an answer that will be handed over counts as an
            # access: a refused consume refreshes nothing either
            assert isinstance(source, ScanPlan)
            for hook in self._access_hooks:
                hook(source.table_name, matched)
        if consumed:
            self._step(node("consume"), consume, consumed)
        return result


def _as_plan(
    check: AnswerCheck,
    instr: PlanInstrumentation,
    report: ConsumeReport | None,
    kind: str,
) -> AnswerCheck:
    """``check`` for an ``EXPLAIN ANALYZE`` of a CONSUME or DELETE, whose
    answer is the plan. It is checked before the ``kind`` node (the one
    that removes rows) has finished, so the plan prints that node's time
    and the total unmeasured: ``check`` sees the plan as it will read
    once the node has run, with both times at :data:`_WIDEST_SECONDS` —
    at least as long as the real one. A consume's removed rows are that
    node's input and output; a delete's are its output (its input count
    is the scan's, already booked)."""

    def sized(answer: ResultSet) -> None:
        widest = copy.deepcopy(instr)
        pending = widest.node(kind)
        assert pending is not None
        if kind == "consume":
            pending.rows_in = pending.rows_out = answer.stats.rows_consumed
        else:
            pending.rows_out = answer.rows[0][0]
        pending.seconds = widest.total_seconds = _WIDEST_SECONDS
        widest.result_rows = len(answer)
        check(_analyzed(widest, report, answer))

    return sized


def _analyzed(
    instr: PlanInstrumentation, report: ConsumeReport | None, result: ResultSet
) -> ResultSet:
    """The ``EXPLAIN ANALYZE`` answer: the annotated plan's lines, with
    the Tier-B verdict of a consume before the total line."""
    lines = render_analyzed(instr)
    if report is not None:
        lines.insert(len(lines) - 1, f"Tier-B consume verdict: {report.verdict}")
    return ResultSet(
        columns=("explain",),
        rows=[(line,) for line in lines],
        consumed=result.consumed,
        stats=result.stats,
    )
