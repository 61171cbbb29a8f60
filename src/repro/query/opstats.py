"""Per-operator actuals behind ``EXPLAIN ANALYZE``.

Plan-vs-actual observability for the Law-2 executor: every plan node
gets an :class:`OperatorStats` collector (rows in/out, rotted rows the
scan skipped over, predicate evaluations, index hits, wall time as
the duration of the operator's ``plan.<kind>`` span) next to the
planner's own :func:`~repro.query.planner.estimate` for that node —
the figure plain ``EXPLAIN`` prints and ``EXPLAIN CONSUME`` reports.
The annotated plan then prints a misestimation factor per operator —
the q-error ``max(est, actual) / min(est, actual)`` — which is the
calibration signal the freshness-aware executor v2 cost model
(ROADMAP item 2) will be graded against.

Instrumentation is strictly opt-in: ordinary execution passes
``collect=None`` through the operators, paying one pointer-is-None
branch per row, and never asks for an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.query.planner import ScanPlan, SelectPlan, plan_nodes


@dataclass
class OperatorStats:
    """Actuals for one plan node, next to its estimated cardinality."""

    kind: str  # scan | join | aggregate | sort | distinct | limit | consume | delete
    label: str
    estimated_rows: int
    rows_in: int = 0
    rows_out: int = 0
    rotted_skipped: int = 0
    predicate_evals: int = 0
    index_hits: int = 0
    seconds: float = 0.0

    def misestimation(self) -> float:
        """q-error of the row estimate: ``max(e, a) / min(e, a)``, ≥ 1."""
        est, actual = self.estimated_rows, self.rows_out
        return max(est, actual, 1) / max(min(est, actual), 1)

    def annotate(self, *, timings: bool = True) -> str:
        """The indented actual-vs-estimate line under the plan line."""
        noun = "rows consumed" if self.kind in ("consume", "delete") else "rows"
        parts = [
            f"{noun}: est {self.estimated_rows}, actual {self.rows_out} "
            f"(q={self.misestimation():.2f})"
        ]
        if self.kind in ("scan", "delete"):
            parts.append(
                f"in {self.rows_in}, index hits {self.index_hits}, "
                f"rotted skipped {self.rotted_skipped}, "
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
        self, plan: SelectPlan | ScanPlan, estimates: Mapping[str, int]
    ) -> None:
        self.nodes = [
            OperatorStats(kind, label, estimates[kind])
            for kind, label in plan_nodes(plan)
        ]
        self.total_seconds = 0.0
        self.result_rows = 0

    def node(self, kind: str) -> OperatorStats | None:
        """The collector of the plan's ``kind`` operator, if it has one."""
        return next((n for n in self.nodes if n.kind == kind), None)

    def worst_misestimation(self) -> float:
        """The largest per-node q-error."""
        return max(node.misestimation() for node in self.nodes)


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
    summary = (
        f"total: {instr.result_rows} row(s); "
        f"worst misestimation q={instr.worst_misestimation():.2f}"
    )
    if timings:
        summary += f"; {instr.total_seconds * 1000.0:.3f} ms"
    lines.append(summary)
    return lines
