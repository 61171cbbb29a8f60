"""Predicate compilation to boolean mask operations.

The vectorized executor evaluates WHERE conjuncts as numpy array
expressions over candidate rid arrays instead of calling
:func:`repro.query.expressions.evaluate` per row. The contract is
**bit-identical** WHERE semantics: for every candidate row, the mask
says exactly what ``matches(expr, ctx)`` would say — including SQL
three-valued logic (a NULL predicate result is a no-match).

Kleene logic rides on a ``(true, null)`` mask pair per boolean node,
where ``true`` already excludes NULL rows:

* comparison: ``t = cmp & ~n`` with ``n`` the union of operand NULLs;
* ``AND``: ``t = lt & rt``; NULL when no side is definitely false;
* ``OR``:  ``t = lt | rt``; NULL when no side is true and one is NULL;
* ``NOT``: true exactly where the operand is definitely false.

Exactness rules keep float64 arithmetic equal to Python's:

* only numeric columns (int/float/timestamp) compile; the storage
  layer refuses a float64 view of an INT column whose magnitude
  reaches 2**53 (:meth:`Table.mask_data` returns None);
* integer ``+ - *`` subtrees propagate a worst-case magnitude bound
  and bail out to the row interpreter when a result could leave the
  float64-exact range;
* ``/`` needs a nonzero numeric literal divisor (so the row path's
  division-by-zero error cannot be skipped) and ``%`` additionally
  needs both sides integer-typed, where ``numpy.remainder`` matches
  Python's floored modulo exactly.

A predicate whose only column is one STR column (``=``, ``!=``,
ordering comparisons, BETWEEN, IN, IS NULL, scalar functions of the
column, AND/OR/NOT of those) runs on the column's dictionary codes
(:meth:`Table.codes`): :func:`evaluate` itself answers it once per
distinct value and once for NULL, and the ``(true, null)`` tables are
indexed by each candidate's code — identical to the row path by
construction. If that pass raises or yields a non-boolean, the
conjunct goes to the row path, which raises exactly as it would have.

Anything else — bool columns, functions of numeric columns, mixed
STR/numeric comparisons, non-literal divisors — refuses to compile and
the executor falls back to the row-at-a-time interpreter for that
conjunct, so errors and results never depend on which route a conjunct
took.

:func:`mask_compilable` is the static (schema-only) version of the
same judgement; the planner uses it to stamp the per-node
vectorized-vs-fallback mode into EXPLAIN output without touching
column data. :func:`compile_values` hands the numeric half to ORDER
BY, which sorts rid arrays by the same exact float64 values.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ExecutionError
from repro.storage.schema import DataType, Schema
from repro.storage.table import Table, _EXACT_INT
from repro.storage.vector import numpy

from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    InList,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.query.expressions import evaluate

#: column dtypes whose values the compiler may load as float64
_NUMERIC_DTYPES = (DataType.INT, DataType.FLOAT, DataType.TIMESTAMP)

#: a compiled predicate: candidate rid array -> boolean match array
MaskFn = Callable[[Any], Any]


class _Fallback(Exception):
    """Raised internally when a subtree cannot compile to masks."""


# ----------------------------------------------------------------------
# shared shape judgement
# ----------------------------------------------------------------------


def _resolve_column(ref: ColumnRef, schema: Schema, binding: str) -> str:
    """The schema column a reference binds to, or raise :class:`_Fallback`.

    Mirrors row-context resolution for single-table scan contexts: a
    bare name or a ``binding.name`` qualification resolves iff the name
    is a schema column; anything else would error per-row, which the
    row interpreter must report.
    """
    if ref.table is not None and ref.table != binding:
        raise _Fallback
    if ref.name not in schema:
        raise _Fallback
    return ref.name


def _numeric_literal(expr: Expression) -> float | int:
    """The value of a non-NULL numeric literal, or raise :class:`_Fallback`."""
    if not isinstance(expr, Literal):
        raise _Fallback
    v = expr.value
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise _Fallback
    return v


def _is_predicate(expr: Expression) -> bool:
    """True for the node shapes whose value is a truth value."""
    if isinstance(expr, BinaryOp):
        return expr.op in ("AND", "OR", "=", "!=", "<", "<=", ">", ">=")
    if isinstance(expr, UnaryOp):
        return expr.op == "NOT"
    return isinstance(expr, (Between, InList, IsNull))


def _str_subtree(expr: Expression, schema: Schema, binding: str) -> str | None:
    """The STR column a predicate-shaped ``expr`` reads, when that one
    column is all it reads; otherwise None.

    Such a subtree is a function of one cell, so it can be evaluated
    once per distinct value of the column (see :func:`_dictionary`).
    """
    if not _is_predicate(expr):
        return None
    try:
        names = {_resolve_column(ref, schema, binding) for ref in expr.column_refs()}
    except _Fallback:
        return None
    if len(names) != 1:
        return None
    (name,) = names
    return name if schema.column(name).dtype is DataType.STR else None


# ----------------------------------------------------------------------
# static judgement (planner: schema only, no data)
# ----------------------------------------------------------------------


def mask_compilable(expr: Expression, schema: Schema, binding: str) -> bool:
    """True when ``expr`` has mask-compilable *shape* against ``schema``.

    Schema-level only: runtime compilation can still refuse (INT
    column magnitudes past the float64-exact range, a STR predicate
    that raises on some value) — the executor re-checks per conjunct.
    The planner uses this to label plan nodes vectorized vs
    row-fallback.
    """
    try:
        _check_bool(expr, schema, binding)
    except _Fallback:
        return False
    return True


def _check_bool(expr: Expression, schema: Schema, binding: str) -> None:
    if _str_subtree(expr, schema, binding) is not None:
        return
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool):
            return
        raise _Fallback
    if isinstance(expr, BinaryOp):
        if expr.op in ("AND", "OR"):
            _check_bool(expr.left, schema, binding)
            _check_bool(expr.right, schema, binding)
            return
        if expr.op in ("=", "!=", "<", "<=", ">", ">="):
            _check_numeric(expr.left, schema, binding)
            _check_numeric(expr.right, schema, binding)
            return
        raise _Fallback
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        _check_bool(expr.operand, schema, binding)
        return
    if isinstance(expr, Between):
        _check_numeric(expr.operand, schema, binding)
        _check_numeric(expr.low, schema, binding)
        _check_numeric(expr.high, schema, binding)
        return
    if isinstance(expr, InList):
        _check_numeric(expr.operand, schema, binding)
        for item in expr.items:
            if isinstance(item, Literal) and item.value is None:
                continue
            _numeric_literal(item)
        return
    if isinstance(expr, IsNull):
        _check_numeric(expr.operand, schema, binding)
        return
    raise _Fallback


def _check_numeric(expr: Expression, schema: Schema, binding: str) -> bool:
    """Validate a numeric subtree; returns True when it is integer-typed."""
    if isinstance(expr, Literal):
        return isinstance(_numeric_literal(expr), int)
    if isinstance(expr, ColumnRef):
        name = _resolve_column(expr, schema, binding)
        dtype = schema.column(name).dtype
        if dtype not in _NUMERIC_DTYPES:
            raise _Fallback
        return dtype is DataType.INT
    if isinstance(expr, UnaryOp) and expr.op == "-":
        return _check_numeric(expr.operand, schema, binding)
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*", "/", "%"):
        left_int = _check_numeric(expr.left, schema, binding)
        if expr.op in ("/", "%"):
            divisor = _numeric_literal(expr.right)
            if divisor == 0:
                raise _Fallback
            if expr.op == "%" and not (left_int and isinstance(divisor, int)):
                raise _Fallback
            return expr.op == "%"
        right_int = _check_numeric(expr.right, schema, binding)
        return left_int and right_int
    raise _Fallback


# ----------------------------------------------------------------------
# runtime compilation
# ----------------------------------------------------------------------


def compile_mask(expr: Expression, table: Table, binding: str) -> MaskFn | None:
    """Compile ``expr`` into a mask function over ``table``, or None.

    The returned callable takes an ``intp`` rid array of known-live
    candidates and returns a boolean array: True exactly where the row
    interpreter's ``matches`` would be True. None means "use the row
    interpreter for this conjunct".
    """
    try:
        node = _compile_bool(expr, table, binding)
    except _Fallback:
        return None

    def run(rid_arr: Any) -> Any:
        t, _n = node(rid_arr)
        # a predicate over literals alone folds to one numpy bool
        t = numpy.broadcast_to(t, rid_arr.shape)
        # anything but a bool mask would index rids instead of masking them
        assert t.dtype == bool, t.dtype
        return t

    return run


def compile_values(expr: Expression, table: Table, binding: str) -> Any:
    """Compile numeric ``expr`` over ``table``, or return None.

    The callable maps an ``intp`` rid array to ``(values, nulls)``:
    float64 values that order exactly as the row interpreter's numbers
    do (the exactness rules above), and a NULL mask or ``None``. A
    literal yields one scalar. ORDER BY sorts rid arrays by these.
    """
    try:
        return _compile_num(expr, table, binding)
    except _Fallback:
        return None


#: a boolean node: rid array -> (definitely-true mask, null mask)
_BoolNode = Callable[[Any], tuple[Any, Any]]

#: a numeric node: rid array -> (float64 values, null mask | None)
_NumNode = Callable[[Any], tuple[Any, Any]]


def _union_nulls(a: Any, b: Any) -> Any:
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _compile_bool(expr: Expression, table: Table, binding: str) -> _BoolNode:
    name = _str_subtree(expr, table.schema, binding)
    if name is not None:
        return _dictionary(expr, table, binding, name)
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        value = expr.value

        def lit(rid_arr: Any) -> tuple[Any, Any]:
            n = rid_arr.shape[0]
            return numpy.full(n, value, dtype=bool), None

        return lit
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
        left = _compile_bool(expr.left, table, binding)
        right = _compile_bool(expr.right, table, binding)
        if expr.op == "AND":

            def conj(rid_arr: Any) -> tuple[Any, Any]:
                lt, ln = left(rid_arr)
                rt, rn = right(rid_arr)
                t = lt & rt
                if ln is None and rn is None:
                    return t, None
                # NULL where neither side is definitely false
                not_false_l = lt if ln is None else (lt | ln)
                not_false_r = rt if rn is None else (rt | rn)
                return t, (not_false_l & not_false_r) & ~t

            return conj

        def disj(rid_arr: Any) -> tuple[Any, Any]:
            lt, ln = left(rid_arr)
            rt, rn = right(rid_arr)
            t = lt | rt
            if ln is None and rn is None:
                return t, None
            return t, _union_nulls(ln, rn) & ~t

        return disj
    if isinstance(expr, BinaryOp) and expr.op in ("=", "!=", "<", "<=", ">", ">="):
        left = _compile_num(expr.left, table, binding)
        right = _compile_num(expr.right, table, binding)
        op = expr.op

        def cmp(rid_arr: Any) -> tuple[Any, Any]:
            lv, ln = left(rid_arr)
            rv, rn = right(rid_arr)
            if op == "=":
                raw = lv == rv
            elif op == "!=":
                raw = lv != rv
            elif op == "<":
                raw = lv < rv
            elif op == "<=":
                raw = lv <= rv
            elif op == ">":
                raw = lv > rv
            else:
                raw = lv >= rv
            n = _union_nulls(ln, rn)
            if n is None:
                return raw, None
            return raw & ~n, n

        return cmp
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        inner = _compile_bool(expr.operand, table, binding)

        def neg(rid_arr: Any) -> tuple[Any, Any]:
            t, n = inner(rid_arr)
            if n is None:
                return ~t, None
            return ~(t | n), n

        return neg
    if isinstance(expr, Between):
        operand = _compile_num(expr.operand, table, binding)
        low = _compile_num(expr.low, table, binding)
        high = _compile_num(expr.high, table, binding)
        negated = expr.negated

        def between(rid_arr: Any) -> tuple[Any, Any]:
            v, vn = operand(rid_arr)
            lo, lon = low(rid_arr)
            hi, hin = high(rid_arr)
            raw = (lo <= v) & (v <= hi)
            if negated:
                raw = ~raw
            n = _union_nulls(_union_nulls(vn, lon), hin)
            if n is None:
                return raw, None
            return raw & ~n, n

        return between
    if isinstance(expr, InList):
        operand = _compile_num(expr.operand, table, binding)
        items: list[float | int] = []
        has_null_item = False
        for item in expr.items:
            if isinstance(item, Literal) and item.value is None:
                has_null_item = True
                continue
            items.append(_numeric_literal(item))
        negated = expr.negated

        def in_list(rid_arr: Any) -> tuple[Any, Any]:
            v, vn = operand(rid_arr)
            match = numpy.zeros(rid_arr.shape[0], dtype=bool)
            for item in items:
                match |= v == item
            # a matching non-null value decides the membership test even
            # when the list also contains NULL; otherwise NULL poisons it
            if vn is None and not has_null_item:
                return (~match if negated else match), None
            n = numpy.zeros(rid_arr.shape[0], dtype=bool)
            if vn is not None:
                n |= vn
            if has_null_item:
                n |= ~match
            if negated:
                return ~match & ~n, n
            return match & ~n, n

        return in_list
    if isinstance(expr, IsNull):
        inner = _compile_num(expr.operand, table, binding)
        negated = expr.negated

        def is_null(rid_arr: Any) -> tuple[Any, Any]:
            _v, n = inner(rid_arr)
            if n is None:
                return numpy.full(rid_arr.shape[0], negated, dtype=bool), None
            return (~n if negated else n.copy()), None

        return is_null
    raise _Fallback


def _dictionary(
    expr: Expression, table: Table, binding: str, name: str
) -> _BoolNode:
    """A predicate over STR column ``name`` alone, through its codes.

    The row interpreter's :func:`evaluate` runs once per distinct value
    (and once for NULL when the column has one), which fills a
    ``(true, null)`` table per code; a candidate's masks are those
    tables indexed by its code, NULL (-1) reading the last slot. An
    evaluation that raises or yields a non-boolean sends the conjunct
    to the row path, which raises (or not) exactly as before: only
    candidate rows reach it there.
    """
    view = table.codes(name)
    assert view is not None  # _str_subtree checked the dtype
    cells = view.values + ((None,) if view.has_null else ())
    true = numpy.zeros(len(view.values) + 1, dtype=bool)
    null = numpy.zeros(len(view.values) + 1, dtype=bool)
    qualified = f"{binding}.{name}"
    for code, cell in enumerate(cells):
        try:
            answer = evaluate(expr, {name: cell, qualified: cell})
        except (ExecutionError, ArithmeticError):
            # what evaluate raises: its own errors, and an overflow in a
            # scalar function (math.exp); the row path raises it, if a
            # candidate row holds the value
            raise _Fallback from None
        # NULL's slot, when evaluated, is the last: the one -1 reads
        if answer is None:
            null[code] = True
        elif answer is True:
            true[code] = True
        elif answer is not False:
            raise _Fallback
    codes = view.codes
    any_null = bool(null.any())

    def dictionary(rid_arr: Any) -> tuple[Any, Any]:
        c = codes[rid_arr]
        return true[c], (null[c] if any_null else None)

    return dictionary


def _compile_num(expr: Expression, table: Table, binding: str) -> _NumNode:
    """Compile a numeric subtree; result values are always float64.

    Raises :class:`_Fallback` when exactness cannot be guaranteed or
    the row interpreter could raise an error the mask path would skip.
    Returns the node; the integer-ness and magnitude bound used for
    exactness checks are tracked by :func:`_num_with_bound`.
    """
    node, _is_int, _bound = _num_with_bound(expr, table, binding)
    return node


def _num_with_bound(
    expr: Expression, table: Table, binding: str
) -> tuple[_NumNode, bool, float]:
    if isinstance(expr, Literal):
        value = _numeric_literal(expr)
        is_int = isinstance(value, int)
        bound = abs(float(value))
        if is_int and bound >= _EXACT_INT:
            raise _Fallback
        # numpy-typed, so a literal-only comparison yields numpy.bool_
        # and NOT is logical (a Python bool would give ~True == -2)
        scalar = numpy.float64(value)

        def lit(rid_arr: Any) -> tuple[Any, Any]:
            return scalar, None

        return lit, is_int, bound
    if isinstance(expr, ColumnRef):
        name = _resolve_column(expr, table.schema, binding)
        md = table.mask_data(name)
        if md is None:
            raise _Fallback

        values = md.values
        nulls = md.nulls

        def col(rid_arr: Any) -> tuple[Any, Any]:
            if nulls is None:
                return values[rid_arr], None
            return values[rid_arr], nulls[rid_arr]

        return col, md.is_int, md.int_bound
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner, is_int, bound = _num_with_bound(expr.operand, table, binding)

        def neg(rid_arr: Any) -> tuple[Any, Any]:
            v, n = inner(rid_arr)
            return -v, n

        return neg, is_int, bound
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*", "/", "%"):
        left, left_int, left_bound = _num_with_bound(expr.left, table, binding)
        op = expr.op
        if op in ("/", "%"):
            divisor = _numeric_literal(expr.right)
            if divisor == 0:
                raise _Fallback
            if op == "%":
                # numpy.remainder matches Python's floored %, and the
                # result magnitude is below |divisor| — but only the
                # all-integer case is proven bit-exact, so mixed or
                # float modulo falls back to the row interpreter
                if not (left_int and isinstance(divisor, int)):
                    raise _Fallback
                if abs(float(divisor)) >= _EXACT_INT:
                    raise _Fallback
                d = float(divisor)

                def mod(rid_arr: Any) -> tuple[Any, Any]:
                    v, n = left(rid_arr)
                    return numpy.remainder(v, d), n

                return mod, True, abs(d)
            d = float(divisor)

            def div(rid_arr: Any) -> tuple[Any, Any]:
                v, n = left(rid_arr)
                return v / d, n

            return div, False, 0.0
        right, right_int, right_bound = _num_with_bound(expr.right, table, binding)
        is_int = left_int and right_int
        if is_int:
            if op == "*":
                bound = left_bound * right_bound
            else:
                bound = left_bound + right_bound
            if bound >= _EXACT_INT:
                raise _Fallback
        else:
            bound = 0.0

        if op == "+":
            fn = lambda a, b: a + b  # noqa: E731
        elif op == "-":
            fn = lambda a, b: a - b  # noqa: E731
        else:
            fn = lambda a, b: a * b  # noqa: E731

        def arith(rid_arr: Any) -> tuple[Any, Any]:
            lv, ln = left(rid_arr)
            rv, rn = right(rid_arr)
            return fn(lv, rv), _union_nulls(ln, rn)

        return arith, is_int, bound
    raise _Fallback
