"""Fuzzing the SQL pipeline with generated ASTs.

Two guarantees:

* ``parse(stmt.to_sql()) == stmt`` for every generatable statement —
  the printer and parser are exact inverses;
* executing any generated statement either succeeds or raises a
  :class:`FungusError` subclass — never a bare Python crash.

Plus the contract of the one tree walk (``children`` / ``map_children``
/ ``walk`` on :class:`Expression`), checked against oracles that do not
use it: the dataclass fields for node counts, the lexer for column
references.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FungusError
from repro.query import QueryEngine, parse
from repro.query.ast_nodes import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Literal,
    OrderItem,
    Projection,
    SelectStmt,
    TableRef,
    UnaryOp,
    walk,
)
from repro.query.tokens import TokenType, tokenize
from repro.storage import Catalog, Schema

# -- expression strategy ------------------------------------------------

# non-negative numbers only: the parser produces "-1" as UnaryOp('-',
# Literal(1)), so a generated Literal(-1) could never round-trip
literals = st.one_of(
    st.integers(min_value=0, max_value=100).map(Literal),
    st.floats(min_value=0, max_value=100, allow_nan=False).map(
        lambda f: Literal(round(f, 3))
    ),
    st.sampled_from(["a", "b", "it's"]).map(Literal),
    st.booleans().map(Literal),
    st.just(Literal(None)),
)

columns = st.sampled_from([ColumnRef("v"), ColumnRef("k"), ColumnRef("t")])


def expressions(depth: int = 2):
    base = st.one_of(literals, columns)
    if depth == 0:
        return base
    sub = expressions(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["+", "-", "*", "/", "=", "<", ">"]), sub, sub).map(
            lambda t: BinaryOp(*t)
        ),
        sub.map(lambda e: UnaryOp("-", e)),
        sub.map(lambda e: IsNull(e)),
        st.tuples(sub, st.lists(literals, min_size=1, max_size=3), st.booleans()).map(
            lambda t: InList(t[0], tuple(t[1]), negated=t[2])
        ),
        st.tuples(sub, literals, literals).map(lambda t: Between(*t)),
        st.tuples(st.sampled_from(["abs", "coalesce"]), sub).map(
            lambda t: FuncCall(t[0], (t[1],))
        ),
    )


predicates = st.tuples(
    st.sampled_from(["=", "<", ">", "<=", ">=", "!="]), expressions(1), expressions(1)
).map(lambda t: BinaryOp(*t))


def _alias_uniquely(projections: list[Projection]) -> tuple[Projection, ...]:
    """Give every projection a distinct alias so output names never clash."""
    return tuple(Projection(p.expr, f"c{i}") for i, p in enumerate(projections))


statements = st.builds(
    SelectStmt,
    projections=st.lists(
        st.builds(Projection, expr=expressions(2)),
        min_size=1,
        max_size=3,
    ).map(_alias_uniquely),
    table=st.just(TableRef("r")),
    where=st.one_of(st.none(), predicates),
    order_by=st.lists(
        st.builds(OrderItem, expr=expressions(1), ascending=st.booleans()),
        max_size=2,
    ).map(tuple),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    consume=st.booleans(),
    distinct=st.booleans(),
)


def _operands_by_field(node: Expression) -> list[Expression]:
    """A node's operands read off its dataclass fields (walk-free oracle)."""
    out = []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Expression):
                out.append(item)
    return out


def _size(node: Expression) -> int:
    return 1 + sum(_size(child) for child in _operands_by_field(node))


@settings(max_examples=200, deadline=None)
@given(expr=expressions(3))
def test_children_walk_and_identity_map(expr):
    nodes = list(walk(expr))
    assert nodes[0] is expr
    assert len(nodes) == _size(expr)  # every node once, none invented
    for node in nodes:
        assert list(node.children()) == _operands_by_field(node)
        assert node.map_children(lambda child: child) is node
    # rebuilding every operand gives an equal tree of fresh interior nodes
    clone = expr.map_children(lambda child: dataclasses.replace(child))
    assert clone == expr and (clone is not expr) == bool(expr.children())


@settings(max_examples=200, deadline=None)
@given(expr=expressions(3))
def test_walk_finds_exactly_the_lexed_column_references(expr):
    tokens = tokenize(expr.to_sql())
    # identifiers that are not function names, left to right in the text
    names = [
        tok.text
        for tok, nxt in zip(tokens, tokens[1:])
        if tok.type is TokenType.IDENT and nxt.type is not TokenType.LPAREN
    ]
    refs = [node for node in walk(expr) if isinstance(node, ColumnRef)]
    # pre-order over to_sql()-ordered operands == order in the rendered text
    assert [ref.name for ref in refs] == names
    assert refs == expr.column_refs()


@settings(max_examples=200, deadline=None)
@given(stmt=statements)
def test_printer_parser_inverse(stmt):
    assert parse(stmt.to_sql()) == stmt


@settings(max_examples=200, deadline=None)
@given(stmt=statements)
def test_execution_never_crashes_unexpectedly(stmt):
    catalog = Catalog()
    table = catalog.create_table("r", Schema.of(t="timestamp", v="int", k="str"))
    for i in range(10):
        table.append((float(i), i * 3 - 10, f"k{i % 3}"))
    engine = QueryEngine(catalog)
    try:
        result = engine.execute(stmt)
    except FungusError:
        return  # typed rejection is fine
    # if it ran, basic result-shape invariants hold
    assert len(result.columns) == len(stmt.projections)
    if stmt.limit is not None:
        assert len(result.rows) <= stmt.limit
    if stmt.consume:
        assert len(result.consumed) + len(table) == 10
