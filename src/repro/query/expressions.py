"""Expression evaluation with SQL-style NULL semantics.

``evaluate(expr, row)`` computes an expression over a row context — a
mapping from column keys (bare and/or table-qualified) to values.
NULL handling follows SQL three-valued logic: comparisons and
arithmetic with NULL yield NULL; ``AND``/``OR`` use Kleene logic;
WHERE treats a NULL predicate result as not-matching.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import ExecutionError
from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Star,
    UnaryOp,
)
from repro.query.functions import SCALAR_FUNCTIONS, is_aggregate

RowContext = Mapping[str, Any]


def evaluate(expr: Expression, row: RowContext) -> Any:
    """Evaluate ``expr`` against ``row``; NULL propagates as ``None``."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        key = expr.key
        if key in row:
            return row[key]
        # an unqualified ref may resolve through exactly one qualifier
        if expr.table is None:
            matches = [k for k in row if k.endswith("." + expr.name)]
            if len(matches) == 1:
                return row[matches[0]]
            if len(matches) > 1:
                raise ExecutionError(f"ambiguous column {expr.name!r}: {sorted(matches)}")
        raise ExecutionError(f"unknown column {key!r}; row has {sorted(row)}")
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row)
        if expr.op == "NOT":
            if value is None:
                return None
            _require_bool(value, "NOT")
            return not value
        if value is None:
            return None
        _require_number(value, "unary -")
        return -value
    if isinstance(expr, BinaryOp):
        return _evaluate_binary(expr, row)
    if isinstance(expr, FuncCall):
        return _evaluate_func(expr, row)
    if isinstance(expr, InList):
        return _evaluate_in(expr, row)
    if isinstance(expr, Between):
        value = evaluate(expr.operand, row)
        low = evaluate(expr.low, row)
        high = evaluate(expr.high, row)
        if value is None or low is None or high is None:
            return None
        _require_comparable(low, value, "BETWEEN")
        _require_comparable(value, high, "BETWEEN")
        result = low <= value <= high
        return (not result) if expr.negated else result
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, Star):
        raise ExecutionError("'*' is only valid as a projection")
    raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")


def matches(predicate: Expression, row: RowContext) -> bool:
    """WHERE semantics: NULL counts as no-match."""
    result = evaluate(predicate, row)
    if result is None:
        return False
    _require_bool(result, "WHERE predicate")
    return result


def _evaluate_binary(expr: BinaryOp, row: RowContext) -> Any:
    op = expr.op
    if op == "AND":
        left = evaluate(expr.left, row)
        if left is False:
            return False
        right = evaluate(expr.right, row)
        if right is False:
            return False
        if left is None or right is None:
            return None
        _require_bool(left, "AND")
        _require_bool(right, "AND")
        return True
    if op == "OR":
        left = evaluate(expr.left, row)
        if left is True:
            return True
        right = evaluate(expr.right, row)
        if right is True:
            return True
        if left is None or right is None:
            return None
        _require_bool(left, "OR")
        _require_bool(right, "OR")
        return False

    left = evaluate(expr.left, row)
    right = evaluate(expr.right, row)
    if left is None or right is None:
        return None
    if op in ("=", "!="):
        _require_comparable(left, right, op)
        return (left == right) if op == "=" else (left != right)
    if op in ("<", "<=", ">", ">="):
        _require_comparable(left, right, op)
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right
    if op in ("+", "-", "*", "/", "%"):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        _require_number(left, op)
        _require_number(right, op)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            return left / right
        if right == 0:
            raise ExecutionError("modulo by zero")
        return left % right
    raise ExecutionError(f"unknown binary operator {op!r}")


def _evaluate_func(expr: FuncCall, row: RowContext) -> Any:
    if is_aggregate(expr.name):
        # the aggregate operator pre-computes these into the row context
        key = expr.to_sql()
        if key in row:
            return row[key]
        raise ExecutionError(
            f"aggregate {expr.name}() outside GROUP BY context (key {key!r} missing)"
        )
    fn = SCALAR_FUNCTIONS.get(expr.name)
    if fn is None:
        raise ExecutionError(f"unknown function {expr.name!r}")
    args = [evaluate(arg, row) for arg in expr.args]
    try:
        return fn(*args)
    except ExecutionError:
        raise
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"{expr.name}({args!r}) failed: {exc}") from exc


def _same_kind(a: Any, b: Any) -> bool:
    """Comparable for IN purposes: bools only with bools, numbers mix."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    a_num = isinstance(a, (int, float))
    b_num = isinstance(b, (int, float))
    if a_num and b_num:
        return True
    return type(a) is type(b)


def _evaluate_in(expr: InList, row: RowContext) -> Any:
    value = evaluate(expr.operand, row)
    if value is None:
        return None
    saw_null = False
    for item in expr.items:
        candidate = evaluate(item, row)
        if candidate is None:
            saw_null = True
        elif _same_kind(candidate, value) and candidate == value:
            return not expr.negated
    if saw_null:
        return None
    return expr.negated


def _require_bool(value: Any, where: str) -> None:
    if not isinstance(value, bool):
        raise ExecutionError(f"{where} expects a boolean, got {value!r}")


def _require_number(value: Any, op: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"operator {op!r} expects a number, got {value!r}")


def _require_comparable(left: Any, right: Any, op: str) -> None:
    lnum = isinstance(left, (int, float)) and not isinstance(left, bool)
    rnum = isinstance(right, (int, float)) and not isinstance(right, bool)
    if lnum and rnum:
        return
    if type(left) is type(right):
        return
    raise ExecutionError(f"cannot apply {op!r} to {left!r} and {right!r}")
