"""Predicate normalization and static truth classification.

Law 2 makes every predicate destructive — ``R := R − σ_P(R)`` — so the
analyzer wants to know *before execution* whether ``P`` provably
matches nothing (the consume is a no-op) or provably matches every
live row (the consume empties the extent). This module provides the
two building blocks:

``normalize``
    Rewrites a predicate to negation normal form (``NOT`` pushed down
    through ``AND``/``OR`` via De Morgan and absorbed into comparison
    operators) and folds constant subtrees, preserving SQL
    three-valued semantics exactly.

``classify``
    Decides :class:`Truth` for a normalized predicate. The claims are
    deliberately asymmetric under NULL semantics: ``ALWAYS_FALSE``
    means *no row can ever match* (FALSE and NULL both fail WHERE, so
    the claim is NULL-safe), while ``ALWAYS_TRUE`` means *every row
    must match*, which additionally requires the constrained columns
    to be non-nullable. Classification assumes the predicate is
    well-typed for the schema; the analyzer runs column/type checks
    first and never classifies an invalid statement.

Interval reasoning over numeric columns supports closed domain
invariants (freshness ``f`` always lies in ``[0, 1]``), so
``f >= 0.0`` classifies as a tautology and ``f < 0.0`` as a
contradiction without looking at any data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional, Tuple

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
    UnaryOp,
    walk,
)
from repro.query.expressions import evaluate
from repro.query.functions import is_aggregate
from repro.storage.schema import Schema

#: Closed numeric domain per column name, e.g. ``{"f": (0.0, 1.0)}``.
Domains = Mapping[str, Tuple[float, float]]

_COMPARISON_FLIP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_COMPARISONS = frozenset(_COMPARISON_FLIP)


class Truth(enum.Enum):
    """Static verdict for a predicate over all possible rows."""

    ALWAYS_TRUE = "always-true"
    ALWAYS_FALSE = "always-false"
    CONTINGENT = "contingent"


# ---------------------------------------------------------------------------
# Interval algebra (numeric columns)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """One numeric interval with independently open/closed endpoints."""

    low: float
    high: float
    low_open: bool = False
    high_open: bool = False

    def is_empty(self) -> bool:
        if self.low > self.high:
            return True
        return self.low == self.high and (self.low_open or self.high_open)

    def intersect(self, other: "Interval") -> "Interval":
        if self.low > other.low:
            low, low_open = self.low, self.low_open
        elif other.low > self.low:
            low, low_open = other.low, other.low_open
        else:
            low, low_open = self.low, self.low_open or other.low_open
        if self.high < other.high:
            high, high_open = self.high, self.high_open
        elif other.high < self.high:
            high, high_open = other.high, other.high_open
        else:
            high, high_open = self.high, self.high_open or other.high_open
        return Interval(low, high, low_open, high_open)

    def touches(self, other: "Interval") -> bool:
        """True when ``self ∪ other`` is a single interval (overlap or abut)."""
        if self.low > other.low:
            return other.touches(self)
        if other.low < self.high:
            return True
        if other.low == self.high:
            return not (self.high_open and other.low_open)
        return False


_FULL = Interval(-math.inf, math.inf, low_open=True, high_open=True)


@dataclass(frozen=True)
class IntervalSet:
    """A finite union of disjoint intervals, kept sorted and merged."""

    intervals: Tuple[Interval, ...]

    @staticmethod
    def of(*parts: Interval) -> "IntervalSet":
        live = sorted(
            (p for p in parts if not p.is_empty()),
            key=lambda p: (p.low, p.low_open),
        )
        merged: list[Interval] = []
        for part in live:
            if merged and merged[-1].touches(part):
                last = merged.pop()
                low, low_open = last.low, last.low_open
                if part.high > last.high:
                    high, high_open = part.high, part.high_open
                elif part.high < last.high:
                    high, high_open = last.high, last.high_open
                else:
                    high, high_open = last.high, last.high_open and part.high_open
                merged.append(Interval(low, high, low_open, high_open))
            else:
                merged.append(part)
        return IntervalSet(tuple(merged))

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet((_FULL,))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def point(value: float) -> "IntervalSet":
        return IntervalSet.of(Interval(value, value))

    @staticmethod
    def from_comparison(op: str, value: float) -> "IntervalSet":
        """The set of ``x`` satisfying ``x <op> value``."""
        if op == "<":
            return IntervalSet.of(Interval(-math.inf, value, True, True))
        if op == "<=":
            return IntervalSet.of(Interval(-math.inf, value, True, False))
        if op == ">":
            return IntervalSet.of(Interval(value, math.inf, True, True))
        if op == ">=":
            return IntervalSet.of(Interval(value, math.inf, False, True))
        if op == "=":
            return IntervalSet.point(value)
        if op == "!=":
            return IntervalSet.point(value).complement()
        raise ValueError(f"not a comparison operator: {op!r}")

    def is_empty(self) -> bool:
        return not self.intervals

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = [
            a.intersect(b) for a in self.intervals for b in other.intervals
        ]
        return IntervalSet.of(*pieces)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(*self.intervals, *other.intervals)

    def complement(self) -> "IntervalSet":
        if not self.intervals:
            return IntervalSet.full()
        pieces: list[Interval] = []
        low, low_open = -math.inf, True
        for part in self.intervals:
            pieces.append(Interval(low, part.low, low_open, not part.low_open))
            low, low_open = part.high, not part.high_open
        pieces.append(Interval(low, math.inf, low_open, True))
        return IntervalSet.of(*pieces)

    def covers(self, other: "IntervalSet") -> bool:
        """True when ``other ⊆ self``."""
        return other.intersect(self.complement()).is_empty()


# ---------------------------------------------------------------------------
# Negation normal form + constant folding
# ---------------------------------------------------------------------------


def normalize(expr: Expression) -> Expression:
    """NNF rewrite plus constant folding, semantics-preserving under 3VL."""
    return _fold(_push_not(expr, False))


def conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Flatten a tree of top-level ``AND`` nodes."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def disjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Flatten a tree of top-level ``OR`` nodes."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        return disjuncts(expr.left) + disjuncts(expr.right)
    return [expr]


def _push_not(expr: Expression, negate: bool) -> Expression:
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return _push_not(expr.operand, not negate)
    if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
        # De Morgan; sound under Kleene logic (NOT NULL is NULL).
        op = expr.op
        if negate:
            op = "OR" if op == "AND" else "AND"
        return BinaryOp(op, _push_not(expr.left, negate), _push_not(expr.right, negate))
    positive = expr.map_children(lambda child: _push_not(child, False))
    if not negate:
        return positive
    if isinstance(positive, BinaryOp) and positive.op in _COMPARISONS:
        # NOT (a < b) ≡ a >= b: both NULL when an operand is NULL.
        return replace(positive, op=_COMPARISON_FLIP[positive.op])
    if isinstance(positive, (Between, InList, IsNull)):
        # IS [NOT] NULL never yields NULL, so plain inversion is exact;
        # [NOT] BETWEEN / [NOT] IN negate to each other under 3VL.
        return replace(positive, negated=not positive.negated)
    if isinstance(positive, Literal) and isinstance(positive.value, bool):
        return Literal(not positive.value)
    return UnaryOp("NOT", positive)


def _is_constant(expr: Expression) -> bool:
    return not any(
        isinstance(node, ColumnRef)
        or (isinstance(node, FuncCall) and is_aggregate(node.name))
        for node in walk(expr)
    )


def _fold(expr: Expression) -> Expression:
    expr = expr.map_children(_fold)
    if isinstance(expr, BinaryOp):
        left, right = expr.left, expr.right
        if expr.op == "AND":
            if _is_false_literal(left) or _is_false_literal(right):
                return Literal(False)
            if _is_true_literal(left):
                return right
            if _is_true_literal(right):
                return left
        elif expr.op == "OR":
            if _is_true_literal(left) or _is_true_literal(right):
                return Literal(True)
            if _is_false_literal(left):
                return right
            if _is_false_literal(right):
                return left
    if not isinstance(expr, Literal) and _is_constant(expr):
        try:
            return Literal(evaluate(expr, {}))
        except ExecutionError:
            return expr  # ill-typed constant; the type checker reports it
    return expr


def _is_true_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.value is True


def _is_false_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.value is False


# ---------------------------------------------------------------------------
# Truth classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyContext:
    """Schema knowledge available to :func:`classify`."""

    schema: Optional[Schema] = None
    domains: Optional[Domains] = None

    def nullable(self, column: str) -> bool:
        """Whether the column may hold NULL; unknown counts as nullable."""
        if self.schema is None or column not in self.schema:
            return True
        return self.schema.column(column).nullable

    def domain(self, column: str) -> Optional[IntervalSet]:
        if self.domains is None:
            return None
        bounds = self.domains.get(column)
        if bounds is None:
            return None
        return IntervalSet.of(Interval(bounds[0], bounds[1]))


def classify(
    expr: Optional[Expression],
    schema: Optional[Schema] = None,
    domains: Optional[Domains] = None,
) -> Truth:
    """Classify a well-typed predicate (normalizing it first).

    ``ALWAYS_FALSE`` is NULL-safe (NULL fails WHERE just like FALSE);
    ``ALWAYS_TRUE`` is only claimed when the constrained columns are
    provably non-nullable.
    """
    if expr is None:
        return Truth.ALWAYS_TRUE
    return _truth(normalize(expr), ClassifyContext(schema, domains))


def _truth(expr: Expression, ctx: ClassifyContext) -> Truth:
    if isinstance(expr, Literal):
        if expr.value is True:
            return Truth.ALWAYS_TRUE
        if expr.value is False or expr.value is None:
            return Truth.ALWAYS_FALSE
        return Truth.CONTINGENT  # ill-typed; reported by the type checker
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return _truth_and(conjuncts(expr), ctx)
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        return _truth_or(disjuncts(expr), ctx)
    return _truth_atom(expr, ctx)


def _truth_and(parts: list[Expression], ctx: ClassifyContext) -> Truth:
    truths = [_truth(part, ctx) for part in parts]
    if Truth.ALWAYS_FALSE in truths:
        return Truth.ALWAYS_FALSE
    if _numeric_contradiction(parts, ctx) or _value_contradiction(parts):
        return Truth.ALWAYS_FALSE
    if _complementary_pair(parts):
        # c AND (NOT c): FALSE or NULL for every row — never a match.
        return Truth.ALWAYS_FALSE
    if all(t is Truth.ALWAYS_TRUE for t in truths):
        return Truth.ALWAYS_TRUE
    return Truth.CONTINGENT


def _truth_or(parts: list[Expression], ctx: ClassifyContext) -> Truth:
    truths = [_truth(part, ctx) for part in parts]
    if Truth.ALWAYS_TRUE in truths:
        return Truth.ALWAYS_TRUE
    if _numeric_tautology(parts, ctx):
        return Truth.ALWAYS_TRUE
    if _complementary_bool_tautology(parts, ctx):
        return Truth.ALWAYS_TRUE
    if all(t is Truth.ALWAYS_FALSE for t in truths):
        return Truth.ALWAYS_FALSE
    return Truth.CONTINGENT


def _truth_atom(expr: Expression, ctx: ClassifyContext) -> Truth:
    atom = _numeric_atom(expr)
    if atom is not None:
        column, satisfied, null_safe_true = atom
        if satisfied.is_empty():
            return Truth.ALWAYS_FALSE
        domain = ctx.domain(column)
        if domain is not None:
            if domain.intersect(satisfied).is_empty():
                return Truth.ALWAYS_FALSE
            if (
                satisfied.covers(domain)
                and null_safe_true
                and not ctx.nullable(column)
            ):
                return Truth.ALWAYS_TRUE
        return Truth.CONTINGENT
    if isinstance(expr, BinaryOp) and expr.op in _COMPARISONS:
        if _is_null_literal(expr.left) or _is_null_literal(expr.right):
            return Truth.ALWAYS_FALSE  # comparison with NULL is never TRUE
        return Truth.CONTINGENT
    if isinstance(expr, IsNull):
        column = _bare_column(expr.operand)
        if column is not None and ctx.schema is not None and column in ctx.schema:
            if not ctx.schema.column(column).nullable:
                return Truth.ALWAYS_TRUE if expr.negated else Truth.ALWAYS_FALSE
        return Truth.CONTINGENT
    if isinstance(expr, InList):
        if all(_is_null_literal(item) for item in expr.items):
            # IN (NULL,...) is NULL or FALSE for any operand; NOT IN too.
            return Truth.ALWAYS_FALSE
        if expr.negated and any(_is_null_literal(item) for item in expr.items):
            # x NOT IN (..., NULL, ...) can never evaluate to TRUE.
            return Truth.ALWAYS_FALSE
        return Truth.CONTINGENT
    if isinstance(expr, Between):
        if any(_is_null_literal(e) for e in (expr.operand, expr.low, expr.high)):
            return Truth.ALWAYS_FALSE
        return Truth.CONTINGENT
    return Truth.CONTINGENT


def _is_null_literal(expr: Expression) -> bool:
    return isinstance(expr, Literal) and expr.value is None


def _bare_column(expr: Expression) -> Optional[str]:
    return expr.name if isinstance(expr, ColumnRef) else None


def _numeric_literal(expr: Expression) -> Optional[float]:
    if isinstance(expr, Literal) and not isinstance(expr.value, bool):
        if isinstance(expr.value, (int, float)):
            return float(expr.value)
    return None


def _numeric_atom(
    expr: Expression,
) -> Optional[Tuple[str, IntervalSet, bool]]:
    """``(column, satisfied-interval-set, null_safe_true)`` for numeric atoms.

    ``null_safe_true`` is False when the atom can yield NULL even for
    rows inside the satisfied set — only relevant for TRUE claims, and
    only the caller's nullability check can discharge it.
    """
    if isinstance(expr, BinaryOp) and expr.op in _COMPARISONS:
        left_col, right_col = _bare_column(expr.left), _bare_column(expr.right)
        left_num, right_num = _numeric_literal(expr.left), _numeric_literal(expr.right)
        if left_col is not None and right_num is not None:
            return left_col, IntervalSet.from_comparison(expr.op, right_num), True
        if right_col is not None and left_num is not None:
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(expr.op, expr.op)
            return right_col, IntervalSet.from_comparison(flipped, left_num), True
        return None
    if isinstance(expr, Between):
        column = _bare_column(expr.operand)
        low, high = _numeric_literal(expr.low), _numeric_literal(expr.high)
        if column is None or low is None or high is None:
            return None
        inside = IntervalSet.of(Interval(low, high))
        return column, inside.complement() if expr.negated else inside, True
    if isinstance(expr, InList):
        column = _bare_column(expr.operand)
        if column is None:
            return None
        points = [_numeric_literal(item) for item in expr.items]
        if any(p is None for p in points):
            return None
        matched = IntervalSet.empty()
        for point in points:
            assert point is not None
            matched = matched.union(IntervalSet.point(point))
        return column, matched.complement() if expr.negated else matched, True
    return None


#: Public name for the atom decomposition — the footprint estimator in
#: :mod:`repro.lint.analyze` shares it.
def numeric_atom(expr: Expression) -> Optional[Tuple[str, IntervalSet, bool]]:
    """See :func:`_numeric_atom`."""
    return _numeric_atom(expr)


def _numeric_contradiction(parts: list[Expression], ctx: ClassifyContext) -> bool:
    """Do the numeric atoms on some column intersect to the empty set?"""
    by_column: dict[str, IntervalSet] = {}
    for part in parts:
        atom = _numeric_atom(part)
        if atom is None:
            continue
        column, satisfied, _ = atom
        current = by_column.get(column)
        if current is None:
            current = ctx.domain(column) or IntervalSet.full()
        by_column[column] = current.intersect(satisfied)
    return any(s.is_empty() for s in by_column.values())


def _numeric_tautology(parts: list[Expression], ctx: ClassifyContext) -> bool:
    """Does the union of atoms cover the whole column for *every* disjunct?

    Requires every disjunct to be a numeric atom on one and the same
    non-nullable column; covering the full real line (or the declared
    domain) then makes the OR a tautology.
    """
    atoms = [_numeric_atom(part) for part in parts]
    if any(a is None for a in atoms):
        return False
    columns = {a[0] for a in atoms if a is not None}
    if len(columns) != 1:
        return False
    column = columns.pop()
    if ctx.nullable(column):
        return False
    union = IntervalSet.empty()
    for atom in atoms:
        assert atom is not None
        if not atom[2]:
            return False
        union = union.union(atom[1])
    target = ctx.domain(column) or IntervalSet.full()
    return union.covers(target)


def _value_contradiction(parts: list[Expression]) -> bool:
    """Equality-lattice contradictions that interval math can't see.

    Handles non-numeric constants: ``c = 'a' AND c = 'b'``,
    ``c = 'a' AND c != 'a'``, and ``c = 'a' AND c IN ('b', 'c')``.
    """
    eq: dict[str, set[Any]] = {}
    allowed: dict[str, set[Any]] = {}
    neq: dict[str, set[Any]] = {}
    for part in parts:
        if isinstance(part, BinaryOp) and part.op in ("=", "!="):
            column, value = _column_literal(part)
            if column is None:
                continue
            target = eq if part.op == "=" else neq
            target.setdefault(column, set()).add(_hashable(value))
        elif isinstance(part, InList) and not part.negated:
            column = _bare_column(part.operand)
            if column is None:
                continue
            values = set()
            for item in part.items:
                if not isinstance(item, Literal):
                    break
                values.add(_hashable(item.value))
            else:
                if column in allowed:
                    allowed[column] &= values
                else:
                    allowed[column] = values
    for column, values in eq.items():
        if len(values) > 1:
            return True
        if values & neq.get(column, set()):
            return True
        if column in allowed and not (values & allowed[column]):
            return True
    return any(not values for values in allowed.values())


def _hashable(value: Any) -> Any:
    # normalize ints/floats the way SQL equality does (1 == 1.0)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    return float(value)


def _column_literal(expr: BinaryOp) -> Tuple[Optional[str], Any]:
    if _bare_column(expr.left) is not None and isinstance(expr.right, Literal):
        return _bare_column(expr.left), expr.right.value
    if _bare_column(expr.right) is not None and isinstance(expr.left, Literal):
        return _bare_column(expr.right), expr.left.value
    return None, None


def _atom_polarity(expr: Expression) -> Optional[Tuple[str, bool]]:
    """``(canonical-sql, positive?)`` for bare-boolean atoms."""
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        inner = _atom_polarity(expr.operand)
        if inner is None:
            return None
        return inner[0], not inner[1]
    if isinstance(expr, ColumnRef):
        return expr.to_sql(), True
    return None


def _complementary_pair(parts: list[Expression]) -> bool:
    seen: dict[str, set[bool]] = {}
    for part in parts:
        atom = _atom_polarity(part)
        if atom is None:
            continue
        seen.setdefault(atom[0], set()).add(atom[1])
    return any(polarities == {True, False} for polarities in seen.values())


def _complementary_bool_tautology(
    parts: list[Expression], ctx: ClassifyContext
) -> bool:
    """``c OR NOT c`` over a provably non-nullable boolean column."""
    if len(parts) < 2:
        return False
    atoms = [_atom_polarity(part) for part in parts]
    if any(a is None for a in atoms):
        return False
    names = {a[0] for a in atoms if a is not None}
    if len(names) != 1:
        return False
    name = names.pop()
    if "." in name or ctx.nullable(name):
        return False
    return {a[1] for a in atoms if a is not None} == {True, False}
