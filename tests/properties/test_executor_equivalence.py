"""The mask-compiled, column-emitting executor against the row interpreter.

Every table is array-backed, so the reference is the executor with its
array routes switched off: :func:`row_interpreter` patches
``repro.query.operators.compile_mask`` to refuse every conjunct, which
sends each one through the row-at-a-time interpreter the product keeps
for uncompilable conjuncts, and ``repro.query.operators.column_route``
to refuse every plan, so projection and ORDER BY run over row contexts.
The reference table also keeps ``t`` in a list rather than an array.
Both must be *bit-identical*: the same SQL over the same rows yields
the same ResultSet (rows, columns, order, Python value types), the same
execution statistics, the same error, the same storage observer
streams (append/delete callbacks — Law 2's deletions included), and
the same surviving extent afterwards — across randomly generated
predicates spanning every mask-compilable shape (comparisons,
arithmetic with ``%`` and ``/``, BETWEEN, IN with NULL items, IS NULL,
AND/OR/NOT, predicates on the STR column's dictionary codes), the
non-compilable shapes that force the hybrid path (a function of a
numeric column), and ORDER BY … LIMIT over NULLs, ties, ``-0.0`` and
NaN.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FungusError
from repro.query import QueryEngine
from repro.storage import Catalog, Schema, Table
from repro.storage.schema import ColumnDef, DataType


class _Recorder:
    """A TableObserver that journals every append/delete it sees."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_append(self, rids, columns) -> None:
        for rid, values in zip(rids, zip(*columns)):
            self.events.append(("append", rid, values))

    def on_delete(self, rids, columns) -> None:
        for rid, values in zip(rids, zip(*columns)):
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
    """Run every conjunct through the row interpreter, none as a mask,
    and build every answer from row contexts, none from columns."""
    with mock.patch(
        "repro.query.operators.compile_mask", lambda *args: None
    ), mock.patch("repro.query.operators.column_route", lambda *args: None):
        yield


def _dump(table: Table) -> list[tuple[int, tuple]]:
    """The live extent, rid-ordered, original Python values."""
    rids = table.live_list()
    columns = [table.gather(name, rids) for name in table.schema.names]
    return [
        (rid, tuple(col[i] for col in columns)) for i, rid in enumerate(rids)
    ]


# -- row and predicate generators ---------------------------------------

@st.composite
def _rows(draw) -> list[tuple]:
    # t holds NaN, which no sort orders, in some tables only: a NaN
    # among the sort keys sends an ORDER BY to row contexts
    t = st.integers(min_value=0, max_value=40).map(float)
    if draw(st.booleans()):
        # a new object per row, as an array column reads back: one NaN
        # object twice would be one value to DISTINCT
        t = st.one_of(t, st.builds(float, st.just("nan")))
    return draw(
        st.lists(
            st.tuples(
                t,
                st.sampled_from([1.0, 1.0, 0.75, 0.5, 0.25, 0.0, -0.0]),  # f
                st.one_of(st.none(), st.integers(min_value=-30, max_value=30)),  # v
                st.one_of(st.none(), st.sampled_from(["a", "b", "c", "A"])),  # key
            ),
            min_size=0,
            max_size=40,
        )
    )


_numeric_column = st.sampled_from(["v", "t", "f"])
_comparator = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])
_int_literal = st.integers(min_value=-30, max_value=30)


_key_literal = st.sampled_from(["'a'", "'b'", "'A'", "'c'"])


@st.composite
def _str_atoms(draw) -> str:
    """A predicate on the STR column alone: it runs on dictionary codes."""
    kind = draw(
        st.sampled_from(["cmp", "between", "inlist", "isnull", "func", "error"])
    )
    if kind == "cmp":
        op = draw(st.sampled_from(["=", "!=", "<", ">=", "<=", ">"]))
        return f"key {op} {draw(_key_literal)}"
    if kind == "between":
        low, high = sorted((draw(_key_literal), draw(_key_literal)))
        negated = "NOT " if draw(st.booleans()) else ""
        return f"key {negated}BETWEEN {low} AND {high}"
    if kind == "inlist":
        items = draw(
            st.lists(st.one_of(_key_literal, st.just("NULL")), min_size=1, max_size=3)
        )
        negated = "NOT " if draw(st.booleans()) else ""
        return f"key {negated}IN ({', '.join(items)})"
    if kind == "isnull":
        return f"key IS{' NOT' if draw(st.booleans()) else ''} NULL"
    if kind == "func":
        return f"upper(key) = {draw(_key_literal)}"
    # a string against a number raises on every non-NULL row: the codes
    # pass hands it to the row path, which raises exactly as before
    return f"key {draw(st.sampled_from(['=', '<']))} 1"


@st.composite
def _atoms(draw) -> str:
    kind = draw(
        st.sampled_from(
            ["cmp", "arith", "mod", "div", "between", "inlist", "isnull", "str",
             "func", "const"]
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
        return f"v IS{negated} NULL"
    if kind == "func":
        # a function of a numeric column never mask-compiles: hybrid mode
        return f"abs(v) {op} {k}"
    return draw(_str_atoms())


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


# key does not compile to values: such an ORDER BY sorts row contexts
_sort_keys = st.sampled_from(["t", "v", "f", "v * 2", "-t", "v", "f", "key"])


@st.composite
def _order_by(draw) -> str:
    """ORDER BY one to three keys, each ASC or DESC, maybe a LIMIT."""
    keys = draw(st.lists(_sort_keys, min_size=1, max_size=3))
    items = [f"{key}{draw(st.sampled_from(['', ' ASC', ' DESC']))}" for key in keys]
    suffix = f" ORDER BY {', '.join(items)}"
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
    return suffix if limit is None else f"{suffix} LIMIT {limit}"


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
    if kind == "select" and draw(st.booleans()):
        head += " DISTINCT"
    columns = draw(
        st.sampled_from(["t, f, v, key", "v, key", "f, t", "r.v, f", "v + 1, key"])
    )
    suffix = draw(_order_by()) if draw(st.booleans()) else ""
    if not suffix and draw(st.booleans()):
        suffix = f" LIMIT {draw(st.integers(min_value=0, max_value=9))}"
    return f"{head} {columns} FROM r WHERE {predicate}{suffix}"


def _run(engine, sql):
    """``(result, None)``, or ``(None, (error type, message))``."""
    try:
        return engine.execute(sql), None
    except FungusError as exc:
        return None, (type(exc), str(exc))


def _stats_tuple(result) -> tuple:
    s = result.stats
    return (s.rows_scanned, s.rows_matched, s.rows_consumed)


def _answer(result) -> str:
    """The answer as the server would send it: only Python scalars."""
    for row in result.rows:
        for value in row:
            assert type(value) in (int, float, str, bool, type(None)), row
    return json.dumps([result.columns, result.rows])


def _selects(head: str) -> st.SearchStrategy:
    """SELECTs with a broad WHERE, so ORDER BY and LIMIT have rows to order."""
    where = st.sampled_from(
        ["f >= 0", "v IS NULL OR v > -20", "key != 'c' OR v IS NULL", "NOT (t < 3)"]
    )
    columns = st.sampled_from(["t, f, v, key", "v, key", "f", "key, v", "v * 1, f"])
    return st.builds(
        lambda distinct, cols, pred, order: f"{head}{distinct} {cols} FROM r "
        f"WHERE {pred}{order}",
        st.sampled_from([""] if head.startswith("CONSUME") else ["", " DISTINCT"]),
        columns,
        where,
        _order_by(),
    )


def _assert_schedule_identical(rows: list[tuple], statements: list[str]) -> None:
    """Run ``statements`` in turn on both executors; all must agree.

    Statements run in sequence on *both* engines so later ones see the
    extent earlier CONSUME/DELETE statements carved out.
    """
    vec_engine, vec_table, vec_rec = _build(True, rows)
    py_engine, py_table, py_rec = _build(False, rows)

    for sql in statements:
        rv, error = _run(vec_engine, sql)
        with row_interpreter():
            rp, py_error = _run(py_engine, sql)
        assert error == py_error, sql
        if error is not None:
            continue
        # json text: NaN == NaN there, and a numpy scalar cannot pass
        assert _answer(rv) == _answer(rp), sql
        assert sorted(rv.consumed) == sorted(rp.consumed), sql
        assert _stats_tuple(rv) == _stats_tuple(rp), sql

    # repr: a NaN equals itself there, as in the json answers
    assert repr(vec_rec.events) == repr(py_rec.events)
    assert repr(_dump(vec_table)) == repr(_dump(py_table))


class TestStatementEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(rows=_rows(), statements=st.lists(_statements(), min_size=1, max_size=4))
    # NOT over a literal-only comparison once produced an integer "mask"
    # (~False == -1) that indexed rids instead of selecting them
    @example(
        rows=[(0.0, 1.0, None, None), (1.0, 1.0, None, None)],
        statements=["SELECT t, f, v, key FROM r WHERE NOT (0 < 0)"],
    )
    def test_statement_schedules_are_backend_identical(self, rows, statements):
        """Random statement schedules leave both executors bit-identical."""
        _assert_schedule_identical(rows, statements)

    @settings(max_examples=150, deadline=None)
    @given(
        rows=_rows(),
        statements=st.lists(
            st.one_of(_selects("SELECT"), _selects("CONSUME SELECT")),
            min_size=1,
            max_size=3,
        ),
    )
    def test_order_by_limit_is_backend_identical(self, rows, statements):
        """ORDER BY … LIMIT sorts the rid array exactly as row contexts
        sort: stable, NULLs last either way, DESC a stable reverse."""
        _assert_schedule_identical(rows, statements)

    @settings(max_examples=60, deadline=None)
    @given(rows=_rows(), sql=_statements())
    def test_analyzed_actuals_match_on_both_backends(self, rows, sql):
        """EXPLAIN ANALYZE reports true actual rows, masked or not."""
        import re

        totals = []
        for vector in (True, False):
            with nullcontext() if vector else row_interpreter():
                engine, _, _ = _build(vector, rows)
                plain, error = _run(engine, sql)
                fresh_engine, _, _ = _build(vector, rows)
                result, analyzed_error = _run(fresh_engine, f"EXPLAIN ANALYZE {sql}")
            # a statement that raises raises alike when analyzed
            assert analyzed_error == error, sql
            if error is not None:
                totals.append(error)
                continue
            match = re.match(r"total: (\d+) row\(s\)", result.rows[-1][0])
            assert match is not None, result.rows
            assert int(match.group(1)) == len(plain), sql
            totals.append(len(plain))
        assert totals[0] == totals[1]


class TestStringPredicateErrors:
    """The codes pass evaluates every distinct value the column ever
    held, dead rows' too; only the row path decides what raises."""

    def _engine(self, keys):
        rows = [(float(i), 1.0, i, key) for i, key in enumerate(keys)]
        engine, table, _ = _build(True, rows)
        return engine, table

    def test_a_type_error_raises_as_on_the_row_path(self):
        engine, _ = self._engine(["a", None, "b"])
        with row_interpreter():
            reference, _ = self._engine(["a", None, "b"])
            expected = _run(reference, "SELECT v FROM r WHERE key = 1")[1]
        assert expected is not None
        assert _run(engine, "SELECT v FROM r WHERE key = 1")[1] == expected

    def test_a_value_only_dead_rows_hold_raises_nothing(self):
        engine, table = self._engine(["a", None, "x" * 1000, None])
        table.delete(0)
        table.delete(2)  # exp(1000) overflows; no live row holds it
        for sql in (
            "SELECT v FROM r WHERE key = 1",
            "SELECT v FROM r WHERE exp(length(key)) > 1.0",
            "SELECT v FROM r WHERE key IS NULL",
        ):
            result, error = _run(engine, sql)
            assert error is None, sql
            assert result.rows == ([(1,), (3,)] if "IS NULL" in sql else []), sql
