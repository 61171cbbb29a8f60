"""The mask-compiled query executor against the row interpreter.

Every table is array-backed, so the reference is the executor with mask
compilation switched off: :func:`row_interpreter` patches
``repro.query.operators.compile_mask`` to refuse every conjunct, which
sends each one through the row-at-a-time interpreter the product keeps
for uncompilable conjuncts. The reference table also keeps ``t`` in a
list rather than an array. Both must be *bit-identical*: the same SQL
over the same rows yields the same ResultSet (rows, columns, order),
the same execution statistics, the same storage observer streams
(append/delete callbacks — Law 2's deletions included), and the same
surviving extent afterwards — across randomly generated predicates
spanning every mask-compilable shape (comparisons, arithmetic with
``%`` and ``/``, BETWEEN, IN with NULL items, IS NULL, AND/OR/NOT)
*and* the non-compilable shapes that force the hybrid path (string
equality conjuncts).
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.query import QueryEngine
from repro.storage import Catalog, Schema, Table
from repro.storage.schema import ColumnDef, DataType


class _Recorder:
    """A TableObserver that journals every append/delete it sees."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_append(self, rid: int, values: tuple) -> None:
        self.events.append(("append", rid, values))

    def on_delete(self, rid: int, values: tuple) -> None:
        self.events.append(("delete", rid, values))

    def on_compact(self, remap) -> None:
        self.events.append(("compact", tuple(sorted(remap.items()))))


def _build(vector: bool, rows: list[tuple]) -> tuple[QueryEngine, Table, _Recorder]:
    catalog = Catalog()
    schema = Schema(
        [
            ColumnDef("t", DataType.TIMESTAMP),
            ColumnDef("f", DataType.FLOAT),
            ColumnDef("v", DataType.INT, nullable=True),
            ColumnDef("key", DataType.STR, nullable=True),
        ]
    )
    table = Table(
        schema,
        name="r",
        vector_columns=("t", "f") if vector else (),
        freshness_column="f",
    )
    recorder = _Recorder()
    table.add_observer(recorder)
    for row in rows:
        table.append(row)
    catalog.register(table)
    return QueryEngine(catalog), table, recorder


@contextmanager
def row_interpreter():
    """Run every conjunct through the row interpreter, none as a mask."""
    with mock.patch("repro.query.operators.compile_mask", lambda *args: None):
        yield


def _dump(table: Table) -> list[tuple[int, tuple]]:
    """The live extent, rid-ordered, original Python values."""
    rids = table.live_list()
    columns = [table.gather(name, rids) for name in table.schema.names]
    return [
        (rid, tuple(col[i] for col in columns)) for i, rid in enumerate(rids)
    ]


# -- row and predicate generators ---------------------------------------

_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40).map(float),  # t
        st.sampled_from([1.0, 1.0, 0.75, 0.5, 0.25, 0.0]),  # f
        st.one_of(st.none(), st.integers(min_value=-30, max_value=30)),  # v
        st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),  # key
    ),
    min_size=0,
    max_size=40,
)

_numeric_column = st.sampled_from(["v", "t", "f"])
_comparator = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])
_int_literal = st.integers(min_value=-30, max_value=30)


@st.composite
def _atoms(draw) -> str:
    kind = draw(
        st.sampled_from(
            ["cmp", "arith", "mod", "div", "between", "inlist", "isnull", "str", "const"]
        )
    )
    col = draw(_numeric_column)
    op = draw(_comparator)
    k = draw(_int_literal)
    if kind == "const":
        # literals alone: the mask folds to one bool for every candidate
        return f"{k} {op} {draw(st.one_of(_int_literal.map(str), st.just('NULL')))}"
    if kind == "cmp":
        rhs = f"{draw(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64))!r}" if col == "f" else str(k)
        return f"{col} {op} {rhs}"
    if kind == "arith":
        return f"{col} * 2 + 1 {op} {k}"
    if kind == "mod":
        divisor = draw(st.integers(min_value=1, max_value=9))
        return f"v % {divisor} = {draw(st.integers(min_value=-2, max_value=8))}"
    if kind == "div":
        divisor = draw(st.sampled_from([2, 4, -3]))
        return f"{col} / {divisor} {op} {k}"
    if kind == "between":
        low, high = sorted((k, draw(_int_literal)))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"{col} {negated}BETWEEN {low} AND {high}"
    if kind == "inlist":
        items = draw(
            st.lists(
                st.one_of(_int_literal.map(str), st.just("NULL")),
                min_size=1,
                max_size=4,
            )
        )
        negated = "NOT " if draw(st.booleans()) else ""
        return f"v {negated}IN ({', '.join(items)})"
    if kind == "isnull":
        negated = " NOT" if draw(st.booleans()) else ""
        return f"{draw(st.sampled_from(['v', 'key']))} IS{negated} NULL"
    # a string conjunct is never mask-compilable: forces hybrid mode
    negated = draw(st.booleans())
    return f"key {'!=' if negated else '='} '{draw(st.sampled_from(['a', 'b']))}'"


@st.composite
def _predicates(draw) -> str:
    left = draw(_atoms())
    shape = draw(st.sampled_from(["atom", "and", "or", "not", "and3"]))
    if shape == "atom":
        return left
    if shape == "not":
        return f"NOT ({left})"
    right = draw(_atoms())
    if shape == "and":
        return f"{left} AND {right}"
    if shape == "or":
        return f"({left}) OR ({right})"
    third = draw(_atoms())
    return f"{left} AND {right} AND {third}"


@st.composite
def _statements(draw) -> str:
    predicate = draw(_predicates())
    kind = draw(
        st.sampled_from(["select", "select", "count", "agg", "consume", "delete"])
    )
    if kind == "delete":
        return f"DELETE FROM r WHERE {predicate}"
    if kind == "count":
        return f"SELECT count(*) FROM r WHERE {predicate}"
    if kind == "agg":
        return (
            f"SELECT key, count(*) AS n, avg(v) FROM r WHERE {predicate} "
            "GROUP BY key ORDER BY key"
        )
    head = "CONSUME SELECT" if kind == "consume" else "SELECT"
    suffix = ""
    if draw(st.booleans()):
        suffix = " ORDER BY t, v"
        limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
        if limit is not None:
            suffix += f" LIMIT {limit}"
    return f"{head} t, f, v, key FROM r WHERE {predicate}{suffix}"


def _stats_tuple(result) -> tuple:
    s = result.stats
    return (s.rows_scanned, s.rows_matched, s.rows_consumed)


class TestStatementEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(rows=_rows, statements=st.lists(_statements(), min_size=1, max_size=4))
    # NOT over a literal-only comparison once produced an integer "mask"
    # (~False == -1) that indexed rids instead of selecting them
    @example(
        rows=[(0.0, 1.0, None, None), (1.0, 1.0, None, None)],
        statements=["SELECT t, f, v, key FROM r WHERE NOT (0 < 0)"],
    )
    def test_statement_schedules_are_backend_identical(self, rows, statements):
        """Random statement schedules leave both executors bit-identical.

        Statements run in sequence on *both* engines so later ones see
        the extent earlier CONSUME/DELETE statements carved out.
        """
        vec_engine, vec_table, vec_rec = _build(True, rows)
        py_engine, py_table, py_rec = _build(False, rows)

        for sql in statements:
            rv = vec_engine.execute(sql)
            with row_interpreter():
                rp = py_engine.execute(sql)
            assert rv.columns == rp.columns, sql
            assert rv.rows == rp.rows, sql
            assert sorted(rv.consumed) == sorted(rp.consumed), sql
            assert _stats_tuple(rv) == _stats_tuple(rp), sql

        assert vec_rec.events == py_rec.events
        assert _dump(vec_table) == _dump(py_table)
        assert vec_table.rot_spans() == py_table.rot_spans()

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows, sql=_statements())
    def test_analyzed_actuals_match_on_both_backends(self, rows, sql):
        """EXPLAIN ANALYZE reports true actual rows, masked or not."""
        import re

        totals = []
        for vector in (True, False):
            with nullcontext() if vector else row_interpreter():
                engine, _, _ = _build(vector, rows)
                expected = len(engine.execute(sql))
                fresh_engine, _, _ = _build(vector, rows)
                result = fresh_engine.execute(f"EXPLAIN ANALYZE {sql}")
            match = re.match(r"total: (\d+) row\(s\)", result.rows[-1][0])
            assert match is not None, result.rows
            assert int(match.group(1)) == expected, sql
            totals.append(expected)
        assert totals[0] == totals[1]
