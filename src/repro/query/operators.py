"""Physical operators: plan interpretation over the storage engine.

Rows travel between operators as *row contexts* — dicts keyed by
column names. Single-table scans publish both bare (``v``) and
qualified (``r.v``) keys; joins publish qualified keys only and
expression evaluation falls back to suffix matching for unambiguous
bare references.

Execution is rid-first (late materialization): :func:`scan_rids`
narrows a candidate rid list conjunct by conjunct — as a boolean mask
over the column arrays when :func:`~repro.query.masks.compile_mask`
accepts the conjunct, as batched row evaluation when it does not — and
contexts are only built for survivors via the column-wise
:func:`materialize`. Both routes run the *same* conjunct-major pipeline
over the same candidate order, so results, row counts and error
behaviour are bit-identical whichever a conjunct takes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence, Sized

from repro.errors import ExecutionError
from repro.obs.profile import PROFILER
from repro.query.ast_nodes import Expression, OrderItem, Projection
from repro.query.expressions import evaluate, matches
from repro.query.functions import aggregate_arity, make_aggregate
from repro.query.masks import compile_mask
from repro.query.normalize import conjuncts
from repro.query.planner import (
    AggregatePlan,
    IndexAccess,
    JoinPlan,
    ScanPlan,
)
from repro.query.result import ExecutionStats
from repro.storage.catalog import Catalog
from repro.storage.rowset import RowSet
from repro.storage.table import Table
from repro.storage.vector import numpy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.query.opstats import OperatorStats

RowContext = dict[str, Any]


def materialize(
    table: Table,
    binding: str,
    rids: Sequence[int],
    qualified_only: bool = False,
) -> list[RowContext]:
    """Build row contexts for known-live ``rids``, column-wise.

    Single-table contexts carry bare *and* qualified keys; join sides
    pass ``qualified_only=True`` to match the historical join-context
    shape. Values come from :meth:`Table.gather`, so original Python
    types survive (INTs stay ``int``).
    """
    names = table.schema.names
    columns = [table.gather(name, rids) for name in names]
    qualified = tuple(f"{binding}.{name}" for name in names)
    out: list[RowContext] = []
    for i in range(len(rids)):
        ctx: RowContext = {}
        for pos, qname in enumerate(qualified):
            value = columns[pos][i]
            if not qualified_only:
                ctx[names[pos]] = value
            ctx[qname] = value
        out.append(ctx)
    return out


def scan_rids(
    plan: ScanPlan,
    catalog: Catalog,
    stats: ExecutionStats,
    collect: "OperatorStats | None" = None,
) -> list[int]:
    """Row ids of live rows matching the scan plan, in candidate order.

    Candidates come from the index, the rot dirty-map spans (when the
    planner proved the residual rules out ``f == 1.0``), or the live
    list; each residual conjunct then narrows the rid list in plan
    order. Mask-compilable conjuncts run as one numpy expression per
    batch; the rest fall back to row evaluation over materialized
    survivor contexts, with identical counting.
    """
    profiling = PROFILER.enabled
    start = PROFILER.time() if profiling else 0.0
    table = catalog.table(plan.table_name)
    candidates: list[int]
    if plan.index is not None:
        candidates = [int(rid) for rid in _index_rids(plan.index, plan.table_name, catalog)]
        stats.used_index = plan.index.describe()
    elif plan.prune is not None:
        candidates = table.rot_live_rows()
        if collect is not None:
            # live rows outside the rot spans hold f == 1.0 exactly,
            # which the residual rules out — never touched
            collect.pruned_skipped += len(table) - len(candidates)
    else:
        candidates = table.live_list()
    if collect is not None:
        # slots the storage iteration (or index maintenance) already
        # skipped because decay rotted them away
        collect.rotted_skipped += table.tombstones
        collect.rows_in += len(candidates)
        if plan.index is not None:
            collect.index_hits += len(candidates)
    stats.rows_scanned += len(candidates)

    filters = plan.filters or tuple(conjuncts(plan.residual))
    current = list(candidates)
    for conj in filters:
        if not current:
            break
        if collect is not None:
            collect.predicate_evals += len(current)
        mask_fn = compile_mask(conj, table, plan.binding)
        if mask_fn is not None:
            rid_arr = numpy.asarray(current, dtype=numpy.intp)
            current = rid_arr[mask_fn(rid_arr)].tolist()
        else:
            contexts = materialize(table, plan.binding, current)
            current = [
                rid
                for rid, ctx in zip(current, contexts)
                if matches(conj, ctx)
            ]
    if collect is not None:
        collect.rows_out += len(current)
    if profiling:
        PROFILER.record(
            "query.scan", rows=len(candidates), seconds=PROFILER.time() - start
        )
    return current


def _index_rids(index: IndexAccess, table_name: str, catalog: Catalog) -> Iterable[int]:
    if index.kind == "hash-eq":
        hash_index = catalog.hash_index(table_name, index.column)
        if hash_index is None:
            raise ExecutionError(f"planned hash index on {table_name}.{index.column} vanished")
        return hash_index.lookup(index.eq_value)
    sorted_index = catalog.sorted_index(table_name, index.column)
    if sorted_index is None:
        raise ExecutionError(f"planned sorted index on {table_name}.{index.column} vanished")
    return sorted_index.range(
        low=index.low,
        high=index.high,
        include_low=index.include_low,
        include_high=index.include_high,
    )


def _join_key_values(
    table: Table, key: str, rids: Sequence[int]
) -> list[Any] | None:
    """Key-column values for one join side, or None when the resolved
    key is not a column of the table (then no row can join)."""
    name = key.split(".")[-1]
    if name not in table.schema:
        return None
    return table.gather(name, rids)


def hash_join(
    plan: JoinPlan,
    catalog: Catalog,
    stats: ExecutionStats,
    collect: "OperatorStats | None" = None,
) -> Iterator[RowContext]:
    """Classic build/probe hash equi-join; right side builds.

    Only the key columns are gathered up front; contexts materialize
    lazily per side for rows that actually participate in a match.
    """
    right_table = catalog.table(plan.right.table_name)
    left_table = catalog.table(plan.left.table_name)
    if collect is not None:
        collect.rotted_skipped += right_table.tombstones + left_table.tombstones
    right_rids = right_table.live_list()
    left_rids = left_table.live_list()
    stats.rows_scanned += len(right_rids) + len(left_rids)
    if collect is not None:
        collect.rows_in += len(right_rids) + len(left_rids)

    right_keys = _join_key_values(right_table, plan.right_key, right_rids)
    left_keys = _join_key_values(left_table, plan.left_key, left_rids)
    if right_keys is None or left_keys is None:
        return

    # build: key -> right positions (NULL keys never join)
    buckets: dict[Any, list[int]] = {}
    for pos, key in enumerate(right_keys):
        if key is not None:
            buckets.setdefault(key, []).append(pos)

    # probe pass one: which rows on each side participate at all?
    matches_per_left: list[tuple[int, list[int]]] = []
    right_used: set[int] = set()
    for pos, key in enumerate(left_keys):
        if key is None:
            continue
        bucket = buckets.get(key)
        if bucket:
            matches_per_left.append((pos, bucket))
            right_used.update(bucket)
    if not matches_per_left:
        return

    # materialize contexts only for participating rows
    left_positions = [pos for pos, _ in matches_per_left]
    left_ctxs = materialize(
        left_table,
        plan.left.binding,
        [left_rids[pos] for pos in left_positions],
        qualified_only=True,
    )
    left_ctx_by_pos = dict(zip(left_positions, left_ctxs))
    used = sorted(right_used)
    right_ctxs = materialize(
        right_table,
        plan.right.binding,
        [right_rids[pos] for pos in used],
        qualified_only=True,
    )
    right_ctx_by_pos = dict(zip(used, right_ctxs))

    for pos, bucket in matches_per_left:
        left_ctx = left_ctx_by_pos[pos]
        for right_pos in bucket:
            merged = dict(left_ctx)
            merged.update(right_ctx_by_pos[right_pos])
            yield merged


def apply_filter(
    rows: Iterable[RowContext],
    predicate: Expression | None,
    stats: ExecutionStats,
    collect: "OperatorStats | None" = None,
) -> Iterator[RowContext]:
    """Keep only contexts matching ``predicate`` (SQL NULL = no match)."""
    for ctx in rows:
        if collect is not None:
            collect.predicate_evals += 1
        if matches(predicate, ctx):
            yield ctx


def aggregate(rows: Iterable[RowContext], plan: AggregatePlan) -> Iterator[RowContext]:
    """Group rows and emit one context per group.

    The emitted context contains the group keys (bare and resolved) and
    one entry per aggregate call keyed by its rendered SQL, which is how
    projection expressions find aggregate values.

    With no GROUP BY, a single global group is emitted even over empty
    input (``SELECT count(*) FROM empty`` must return 0).
    """
    groups: dict[tuple, list] = {}
    group_rows_order: list[tuple] = []
    accumulators: dict[tuple, list] = {}
    keep_ctx: dict[tuple, RowContext] = {}

    def new_accumulators() -> list:
        return [make_aggregate(a.name, star=a.star, distinct=a.distinct) for a in plan.aggregates]

    for ctx in rows:
        key = tuple(ctx.get(k) for k in plan.group_keys)
        if key not in accumulators:
            accumulators[key] = new_accumulators()
            group_rows_order.append(key)
            keep_ctx[key] = ctx
        accs = accumulators[key]
        for acc, call in zip(accs, plan.aggregates):
            if call.star:
                acc.add(None)
            elif aggregate_arity(call.name) == 2:
                acc.add(tuple(evaluate(arg, ctx) for arg in call.args))
            else:
                acc.add(evaluate(call.args[0], ctx) if call.args else None)

    if not accumulators and not plan.group_keys:
        accumulators[()] = new_accumulators()
        group_rows_order.append(())
        keep_ctx[()] = {}

    for key in group_rows_order:
        out: RowContext = {}
        for name, resolved, value in zip(plan.group_names, plan.group_keys, key):
            out[name] = value
            out[resolved] = value
        for acc, call in zip(accumulators[key], plan.aggregates):
            out[call.to_sql()] = acc.result()
        if plan.having is not None and not matches(plan.having, out):
            continue
        yield out


def is_count_star_only(plan: AggregatePlan | None) -> bool:
    """True when aggregation is pure ``count(*)`` with no GROUP BY.

    These queries need only the matched-row *count* — the executor
    skips context materialization entirely and feeds the count straight
    into :func:`count_star_group`.
    """
    return (
        plan is not None
        and not plan.group_keys
        and bool(plan.aggregates)
        and all(call.star for call in plan.aggregates)
    )


def count_star_group(matched: Sized, plan: AggregatePlan) -> Iterator[RowContext]:
    """Emit the single global group of a ``count(*)``-only aggregation.

    Mirrors :func:`aggregate` exactly for the :func:`is_count_star_only`
    shape (HAVING included) without ever touching the ``matched`` rows
    (bare rids will do): only their count is read.
    """
    out: RowContext = {call.to_sql(): len(matched) for call in plan.aggregates}
    if plan.having is not None and not matches(plan.having, out):
        return
    yield out


def project(rows: Iterable[RowContext], projections: tuple[Projection, ...]) -> Iterator[tuple]:
    """Evaluate the SELECT list, producing output tuples."""
    for ctx in rows:
        yield tuple(evaluate(p.expr, ctx) for p in projections)


def distinct(rows: Iterable[tuple]) -> Iterator[tuple]:
    """Drop duplicate output tuples, preserving first-seen order."""
    seen: set[tuple] = set()
    for row in rows:
        if row not in seen:
            seen.add(row)
            yield row


class _NullsLast:
    """Sort key wrapper: None sorts after everything, consistently."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "_NullsLast") -> bool:
        if self.value is None:
            return False
        if other.value is None:
            return True
        try:
            return self.value < other.value
        except TypeError as exc:
            raise ExecutionError(
                f"cannot order {self.value!r} against {other.value!r}"
            ) from exc


def sort_rows(
    rows: Iterable[RowContext], order_by: tuple[OrderItem, ...]
) -> list[RowContext]:
    """Stable multi-key sort of contexts; NULLs sort last either direction.

    Two stable passes per key: first by value (respecting ASC/DESC),
    then by NULL-ness ascending — a plain ``reverse=`` flag would flip
    NULLs to the front on DESC.
    """
    out = list(rows)
    for item in reversed(order_by):
        out.sort(
            key=lambda ctx: _NullsLast(evaluate(item.expr, ctx)),
            reverse=not item.ascending,
        )
        out.sort(key=lambda ctx: evaluate(item.expr, ctx) is None)
    return out


def limit(rows: Iterable[tuple], n: int) -> Iterator[tuple]:
    """Pass through at most ``n`` rows, never over-pulling the source."""
    if n < 0:
        raise ExecutionError(f"LIMIT must be non-negative, got {n}")
    if n == 0:
        return
    count = 0
    for row in rows:
        yield row
        count += 1
        if count >= n:
            return


def consume_rows(table: Any, rids: RowSet) -> None:
    """Law 2 enforcement: delete every answer-set row from the table."""
    table.delete_rows(rids)
