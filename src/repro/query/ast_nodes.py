"""Abstract syntax tree for the SQL subset.

All nodes are frozen dataclasses; each renders back to SQL via
``to_sql()`` (used in error messages and round-trip tests).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterator, Union


class Expression:
    """Base class for expression nodes.

    Traversal is defined here, once: a node's operands are its dataclass
    fields annotated ``Expression`` or ``tuple[Expression, ...]``, in
    declaration order (which every node keeps equal to ``to_sql()``
    order). Everything that reads a tree — planner, analyzer, lint,
    fingerprinter — goes through :meth:`children`, :meth:`map_children`
    or :func:`walk`; only the interpreters (``expressions.evaluate``,
    ``masks``) dispatch on node type, because they give each type a
    meaning rather than enumerate its operands.
    """

    #: ``(field name, is a tuple of operands)`` per operand field,
    #: computed once per node class
    _operand_fields: ClassVar[tuple[tuple[str, bool], ...]] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        annotations = cls.__dict__.get("__annotations__", {})
        cls._operand_fields = tuple(
            (name, annotation != "Expression")
            for name, annotation in annotations.items()
            if annotation in ("Expression", "tuple[Expression, ...]")
        )

    def to_sql(self) -> str:
        """Render back to query-language text."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """This node's operands, in ``to_sql()`` order."""
        if not self._operand_fields:
            return ()  # leaves are most of any tree
        out: list[Expression] = []
        for name, many in self._operand_fields:
            if many:
                out.extend(getattr(self, name))
            else:
                out.append(getattr(self, name))
        return tuple(out)

    def map_children(
        self, fn: "Callable[[Expression], Expression]"
    ) -> "Expression":
        """The same node (type and flags) over ``fn(child)`` operands;
        ``self`` itself when ``fn`` changed none of them."""
        changed: dict[str, Any] = {}
        for name, many in self._operand_fields:
            old = getattr(self, name)
            if many:
                new = tuple(fn(child) for child in old)
                if any(n is not o for n, o in zip(new, old)):
                    changed[name] = new
            else:
                new = fn(old)
                if new is not old:
                    changed[name] = new
        # every subclass is a dataclass; the base class only hosts the walk
        return dataclasses.replace(self, **changed) if changed else self  # type: ignore[type-var]

    def column_refs(self) -> list["ColumnRef"]:
        """Every column reference in this subtree, depth-first."""
        return [node for node in walk(self) if isinstance(node, ColumnRef)]


def walk(expr: Expression) -> Iterator[Expression]:
    """Every node of ``expr``, pre-order, operands in ``to_sql()`` order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, boolean, or NULL."""

    value: Any

    def to_sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    name: str
    table: str | None = None

    def to_sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    @property
    def key(self) -> str:
        """The row-context key this reference binds to."""
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``NOT expr`` or ``-expr``."""

    op: str  # "NOT" or "-"
    operand: Expression

    def to_sql(self) -> str:
        if self.op == "NOT":
            return f"(NOT {self.operand.to_sql()})"
        # the space matters: "(--1)" would lex as a line comment
        return f"(- {self.operand.to_sql()})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary arithmetic, comparison, or logical operation."""

    op: str  # one of + - * / % = != < <= > >= AND OR
    left: Expression
    right: Expression

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"


@dataclass(frozen=True)
class FuncCall(Expression):
    """A scalar or aggregate function call; ``COUNT(*)`` uses star=True."""

    name: str  # lower-cased
    args: tuple[Expression, ...] = ()
    star: bool = False
    distinct: bool = False

    def to_sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        inner = ", ".join(a.to_sql() for a in self.args)
        if self.distinct:
            inner = "DISTINCT " + inner
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        inner = ", ".join(i.to_sql() for i in self.items)
        return f"({self.operand.to_sql()} {op} ({inner}))"


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high`` (closed interval)."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def to_sql(self) -> str:
        op = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.to_sql()} {op} {self.low.to_sql()} AND {self.high.to_sql()})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def to_sql(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {op})"


@dataclass(frozen=True)
class Star(Expression):
    """The ``*`` projection."""

    def to_sql(self) -> str:
        return "*"


@dataclass(frozen=True)
class Projection:
    """One SELECT-list item: an expression with an optional alias."""

    expr: Expression
    alias: str | None = None

    def to_sql(self) -> str:
        sql = self.expr.to_sql()
        return f"{sql} AS {self.alias}" if self.alias else sql

    @property
    def output_name(self) -> str:
        """Column name this projection produces in the result."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        return self.expr.to_sql()


@dataclass(frozen=True)
class TableRef:
    """A FROM/JOIN table with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding(self) -> str:
        """The name columns are qualified with (alias wins)."""
        return self.alias or self.name

    def to_sql(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expression
    ascending: bool = True

    def to_sql(self) -> str:
        return f"{self.expr.to_sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON left = right`` (equi-join only)."""

    table: TableRef
    left: ColumnRef
    right: ColumnRef

    def to_sql(self) -> str:
        return f"JOIN {self.table.to_sql()} ON {self.left.to_sql()} = {self.right.to_sql()}"


@dataclass(frozen=True)
class InsertStmt:
    """``INSERT INTO table [(cols)] VALUES (...), (...)``.

    Values are constant expressions (literals, arithmetic on literals);
    the planner rejects anything referencing columns.
    """

    table: str
    columns: tuple[str, ...]  # empty means "all columns in schema order"
    rows: tuple[tuple[Expression, ...], ...]

    kind: ClassVar[str] = "insert"

    @property
    def target(self) -> str:
        """The base table this statement is scoped to."""
        return self.table

    def to_sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        rows = ", ".join(
            "(" + ", ".join(v.to_sql() for v in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass(frozen=True)
class DeleteStmt:
    """``DELETE FROM table [WHERE predicate]``.

    Plain removal — unlike ``CONSUME SELECT`` the rows are not turned
    into an answer set, and FungusDB does not distill them: the
    executor hands the victims to the table's delete delegate with
    cause ``"external"``, which evicts them under that cause.
    """

    table: str
    where: Expression | None = None

    kind: ClassVar[str] = "delete"

    @property
    def target(self) -> str:
        """The base table this statement is scoped to."""
        return self.table

    def expressions(self) -> Iterator[Expression]:
        """Every expression slot of the statement (just the WHERE)."""
        if self.where is not None:
            yield self.where

    def to_sql(self) -> str:
        suffix = f" WHERE {self.where.to_sql()}" if self.where else ""
        return f"DELETE FROM {self.table}{suffix}"


@dataclass(frozen=True)
class SelectStmt:
    """A full [CONSUME] SELECT statement."""

    projections: tuple[Projection, ...]
    table: TableRef
    join: JoinClause | None = None
    where: Expression | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Expression | None = None
    order_by: tuple[OrderItem, ...] = ()
    limit: int | None = None
    consume: bool = False
    distinct: bool = False

    @property
    def kind(self) -> str:
        return "consume" if self.consume else "select"

    @property
    def target(self) -> str:
        """The base (FROM) table this statement is scoped to."""
        return self.table.name

    def expressions(self) -> Iterator[Expression]:
        """Every expression slot of the statement, in clause order."""
        if self.join is not None:
            yield self.join.left
            yield self.join.right
        for proj in self.projections:
            yield proj.expr
        if self.where is not None:
            yield self.where
        yield from self.group_by
        if self.having is not None:
            yield self.having
        for item in self.order_by:
            yield item.expr

    def to_sql(self) -> str:
        parts = []
        if self.consume:
            parts.append("CONSUME")
        parts.append("SELECT")
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(p.to_sql() for p in self.projections))
        parts.append(f"FROM {self.table.to_sql()}")
        if self.join:
            parts.append(self.join.to_sql())
        if self.where:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(c.to_sql() for c in self.group_by))
        if self.having:
            parts.append(f"HAVING {self.having.to_sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.to_sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class ExplainStmt:
    """``EXPLAIN [ANALYZE] [CONSUME] SELECT|DELETE ...``.

    Plain ``EXPLAIN`` describes and never executes: wrapping a
    consuming select asks the Tier-B analyzer for the statement's
    statically-estimated Law-2 footprint, wrapping a plain select or a
    delete renders the physical plan with each node's estimated rows.
    No row is touched.

    ``EXPLAIN ANALYZE`` follows Postgres: the wrapped statement *is*
    executed — CONSUME and DELETE really remove rows — with every plan
    node instrumented, and the annotated plan (estimated vs. actual
    rows, per-operator timings) is returned instead of the result set.
    """

    inner: SelectStmt | DeleteStmt
    analyze: bool = False

    kind: ClassVar[str] = "explain"

    @property
    def target(self) -> str:
        """The base table the wrapped statement is scoped to."""
        return self.inner.target

    def to_sql(self) -> str:
        prefix = "EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"
        return f"{prefix} {self.inner.to_sql()}"


Statement = Union[SelectStmt, InsertStmt, DeleteStmt, ExplainStmt]


def rewrite_leaves(
    expr: Expression,
    column_fn: "Callable[[ColumnRef], Expression] | None" = None,
    literal_fn: "Callable[[Literal], Expression] | None" = None,
) -> Expression:
    """``expr`` with every :class:`ColumnRef` / :class:`Literal` leaf
    replaced by ``column_fn(ref)`` / ``literal_fn(lit)`` (when given).

    Subtrees without a replaced leaf come back as the same objects.
    Used to de-qualify predicates for the single-table estimators and
    by query fingerprinting (stripping literals to placeholders).
    """
    if isinstance(expr, Literal):
        return literal_fn(expr) if literal_fn is not None else expr
    if isinstance(expr, ColumnRef):
        return column_fn(expr) if column_fn is not None else expr
    return expr.map_children(lambda c: rewrite_leaves(c, column_fn, literal_fn))
