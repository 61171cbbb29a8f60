"""Per-operator instrumentation behind ``EXPLAIN ANALYZE``.

Plan-vs-actual observability for the Law-2 executor: every plan node
gets an :class:`OperatorStats` collector (rows in/out, rotted rows the
scan skipped over, predicate evaluations, index hits, wall time via
the :class:`~repro.obs.profile.HotPathProfiler` clock) plus an
*estimated* output cardinality computed with the very same selectivity
arithmetic the Tier-B consume analyzer trusts
(:func:`repro.lint.analyze.predicate_selectivity` over
:mod:`repro.storage.stats` equi-width histograms). The annotated plan
then prints a misestimation factor per operator — the q-error
``max(est, actual) / min(est, actual)`` — which is the calibration
signal the freshness-aware executor v2 cost model (ROADMAP item 2)
will be graded against.

Instrumentation is strictly opt-in: ordinary execution passes
``collect=None`` through the operators, paying one pointer-is-None
branch per row. Estimates read the planner's own lazy, cached
:func:`~repro.storage.stats.planner_stats` view, so only the columns a
plan mentions are ever histogrammed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lint.analyze import DEFAULT_SELECTIVITY, predicate_selectivity
from repro.query.ast_nodes import BinaryOp, ColumnRef, Expression, Literal
from repro.query.normalize import conjuncts
from repro.query.planner import (
    IndexAccess,
    JoinPlan,
    ScanPlan,
    SelectPlan,
    dequalify,
    plan_nodes,
)
from repro.storage.catalog import Catalog
from repro.storage.stats import PlannerStats, planner_stats


@dataclass
class OperatorStats:
    """Actuals for one plan node, next to its estimated cardinality."""

    kind: str  # scan | join | aggregate | sort | distinct | limit | consume | delete
    label: str
    rows_in: int = 0
    rows_out: int = 0
    rotted_skipped: int = 0
    pruned_skipped: int = 0
    predicate_evals: int = 0
    index_hits: int = 0
    seconds: float = 0.0
    estimated_rows: int | None = None

    def misestimation(self) -> float | None:
        """q-error of the row estimate: ``max(e, a) / min(e, a)``, ≥ 1."""
        if self.estimated_rows is None:
            return None
        est, actual = self.estimated_rows, self.rows_out
        return max(est, actual, 1) / max(min(est, actual), 1)

    def annotate(self, *, timings: bool = True) -> str:
        """The indented actual-vs-estimate line under the plan line."""
        noun = "rows consumed" if self.kind in ("consume", "delete") else "rows"
        if self.estimated_rows is None:
            parts = [f"{noun}: actual {self.rows_out}"]
        else:
            q = self.misestimation()
            parts = [
                f"{noun}: est {self.estimated_rows}, actual {self.rows_out} "
                f"(q={q:.2f})"
            ]
        if self.kind in ("scan", "delete"):
            parts.append(
                f"in {self.rows_in}, index hits {self.index_hits}, "
                f"rotted skipped {self.rotted_skipped}, "
                f"span pruned {self.pruned_skipped}, "
                f"predicate evals {self.predicate_evals}"
            )
        elif self.kind == "join":
            parts.append(
                f"in {self.rows_in}, predicate evals {self.predicate_evals}"
            )
        else:
            parts.append(f"in {self.rows_in}")
        if timings:
            parts.append(f"{self.seconds * 1000.0:.3f} ms")
        return " | ".join(parts)


class PlanInstrumentation:
    """:class:`OperatorStats` collectors for one executed plan: one per
    :func:`~repro.query.planner.plan_nodes` entry, in execution order."""

    def __init__(
        self, plan: SelectPlan | ScanPlan, estimates: dict[str, int | None]
    ) -> None:
        self.nodes = [
            OperatorStats(kind, label, estimated_rows=estimates.get(kind))
            for kind, label in plan_nodes(plan)
        ]
        self.total_seconds = 0.0
        self.result_rows = 0
        #: Tier-B verdict of an analyzed consume (set by the executor)
        self.consume_verdict: str | None = None

    def node(self, kind: str) -> OperatorStats | None:
        """The collector of the plan's ``kind`` operator, if it has one."""
        return next((n for n in self.nodes if n.kind == kind), None)

    def worst_misestimation(self) -> float | None:
        """The largest per-node q-error, or ``None`` without estimates."""
        factors = [
            q for node in self.nodes if (q := node.misestimation()) is not None
        ]
        return max(factors) if factors else None


# ----------------------------------------------------------------------
# cardinality estimation
# ----------------------------------------------------------------------

def _index_expr(index: IndexAccess) -> Expression | None:
    """The predicate an index access stands for, for the estimator."""
    column = ColumnRef(index.column)
    if index.kind == "hash-eq":
        return BinaryOp("=", column, Literal(index.eq_value))
    parts: list[Expression] = []
    if index.low is not None:
        parts.append(
            BinaryOp(">=" if index.include_low else ">", column, Literal(index.low))
        )
    if index.high is not None:
        parts.append(
            BinaryOp("<=" if index.include_high else "<", column, Literal(index.high))
        )
    out: Expression | None = None
    for part in parts:
        out = part if out is None else BinaryOp("AND", out, part)
    return out


def _scan_estimates(
    scan: ScanPlan, stats: PlannerStats, footprint: int | None = None
) -> tuple[int, int]:
    """(estimated rows entering the scan, estimated rows it emits).

    ``footprint`` is the span-pruned candidate count (rot-spot rows
    only) when freshness pruning applies — the cost model charges only
    the surviving span footprint, so both estimates are capped by it.
    """
    extent = stats.live_rows
    access = _index_expr(scan.index) if scan.index is not None else None
    est_in = extent
    if access is not None:
        est_in = _clamp(extent * predicate_selectivity(access, stats), extent)
    combined = access
    if scan.residual is not None:
        combined = (
            scan.residual
            if combined is None
            else BinaryOp("AND", combined, scan.residual)
        )
    est_out = _clamp(extent * predicate_selectivity(combined, stats), extent)
    if footprint is not None:
        est_in = min(est_in, footprint)
        est_out = min(est_out, footprint)
    return est_in, est_out


def _scan_footprint(scan: ScanPlan, catalog: Catalog) -> int | None:
    """Rot-spot live-row count when the plan prunes by freshness."""
    if scan.prune is None:
        return None
    return catalog.table(scan.table_name).rot_live_count()


def _clamp(value: float, extent: int) -> int:
    return max(0, min(extent, round(value)))


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
                sel = predicate_selectivity(local, stats)
                break
        out *= sel
    return out


def _key_distinct(key: str, stats: PlannerStats) -> int:
    try:
        return max(1, stats.column(key.split(".")[-1]).distinct)
    except KeyError:
        return 1


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


# ----------------------------------------------------------------------
# instrumentation builders
# ----------------------------------------------------------------------

def instrument_select(plan: SelectPlan, catalog: Catalog) -> PlanInstrumentation:
    """Build estimate-carrying collectors for every node of ``plan``."""
    est: dict[str, int | None] = {}
    source = plan.source
    stats_by_binding: dict[str, PlannerStats] = {}
    if isinstance(source, ScanPlan):
        stats = planner_stats(catalog.table(source.table_name))
        stats_by_binding[source.binding] = stats
        _, rows = _scan_estimates(source, stats, _scan_footprint(source, catalog))
        est["scan"] = est["consume"] = rows
    else:
        assert isinstance(source, JoinPlan)
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
    return PlanInstrumentation(plan, est)


def instrument_delete(plan: ScanPlan, catalog: Catalog) -> PlanInstrumentation:
    """Collectors for a DELETE's victim scan (shares the scan counters)."""
    stats = planner_stats(catalog.table(plan.table_name))
    _, est = _scan_estimates(plan, stats, _scan_footprint(plan, catalog))
    return PlanInstrumentation(plan, {"delete": est})


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_analyzed(
    instr: PlanInstrumentation, *, timings: bool = True
) -> list[str]:
    """The annotated plan: one label line + one actuals line per node.

    ``timings=False`` drops the wall-time suffixes and total duration
    so golden-text tests stay deterministic.
    """
    lines = ["EXPLAIN ANALYZE (plan vs. actual)"]
    for node in instr.nodes:
        lines.extend(node.label.splitlines())
        lines.append("  " + node.annotate(timings=timings))
    worst = instr.worst_misestimation()
    summary = f"total: {instr.result_rows} row(s)"
    if worst is not None:
        summary += f"; worst misestimation q={worst:.2f}"
    if timings:
        summary += f"; {instr.total_seconds * 1000.0:.3f} ms"
    lines.append(summary)
    return lines
