"""EXPLAIN ANALYZE: instrumented execution, plan-vs-actual rendering.

Golden-text tests pin the annotated output for every plan shape the
executor can produce — full scan, hash-index scan, join, aggregate +
sort, distinct + limit, CONSUME, DELETE — with timings stripped
(``render_analyzed`` keeps wall times out of the goldens via the same
regex the shell cannot rely on). A Hypothesis property then checks the
core invariant: the ``actual`` row count an analyzed statement reports
is exactly the row count the plain statement returns.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.query import QueryEngine, parse
from repro.query.ast_nodes import ExplainStmt
from repro.query.planner import plan_delete, plan_select, render_plan
from repro.storage import Catalog, Schema, Table

#: strips the per-node and total wall-time suffixes from analyzed lines
TIMING = re.compile(r" \| \d+\.\d{3} ms$|; \d+\.\d{3} ms$")


def build_engine(vectorized: bool = False) -> QueryEngine:
    """The conftest 10-row ``r`` plus a 2-row join target ``s``.

    ``vectorized=True`` builds ``r`` the way FungusDB does — numpy
    ``t``/``f`` vector columns with ``f`` as the freshness column — so
    the same statements run through the mask-compiled executor.
    """
    table = Table(
        Schema.of(t="timestamp", f="float", v="int", key="str"),
        name="r",
        vector_columns=("t", "f") if vectorized else (),
        freshness_column="f" if vectorized else None,
    )
    for i in range(10):
        table.append(
            {"t": float(i), "f": 1.0, "v": i * i, "key": "a" if i % 2 else "b"}
        )
    lookup = Table(Schema.of(k="str", label="str"), name="s")
    for k in ("a", "b"):
        lookup.append({"k": k, "label": k.upper()})
    catalog = Catalog()
    catalog.register(table)
    catalog.register(lookup)
    catalog.create_hash_index("r", "key")
    return QueryEngine(catalog)


def build_rotted_engine() -> QueryEngine:
    """A vectorized table whose last two rows sit in a rot spot."""
    table = Table(
        Schema.of(t="timestamp", f="float", v="int", key="str"),
        name="r",
        vector_columns=("t", "f"),
        freshness_column="f",
    )
    for i in range(10):
        table.append(
            {
                "t": float(i),
                "f": 0.5 if i >= 8 else 1.0,
                "v": i * i,
                "key": "a" if i % 2 else "b",
            }
        )
    catalog = Catalog()
    catalog.register(table)
    return QueryEngine(catalog)


@pytest.fixture
def engine() -> QueryEngine:
    return build_engine()


def analyzed(engine: QueryEngine, sql: str) -> list[str]:
    """Execute and return the annotated plan, wall times stripped."""
    result = engine.execute(sql)
    assert result.columns == ("explain",)
    return [TIMING.sub("", row[0]) for row in result.rows]


class TestGoldenOutput:
    def test_full_scan(self, engine):
        assert analyzed(engine, "EXPLAIN ANALYZE SELECT v FROM r WHERE v > 50") == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via full scan; residual (v > 50)",
            "  mode: vectorized",
            "  rows: est 2, actual 2 (q=1.00) | in 10, index hits 0, "
            "rotted skipped 0, span pruned 0, predicate evals 10",
            "total: 2 row(s); worst misestimation q=1.00",
        ]

    def test_hash_index_scan(self, engine):
        assert analyzed(
            engine, "EXPLAIN ANALYZE SELECT key FROM r WHERE key = 'a'"
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via hash(key='a'); residual none",
            "  mode: vectorized",
            "  rows: est 5, actual 5 (q=1.00) | in 5, index hits 5, "
            "rotted skipped 0, span pruned 0, predicate evals 0",
            "total: 5 row(s); worst misestimation q=1.00",
        ]

    def test_aggregate_and_sort(self, engine):
        assert analyzed(
            engine,
            "EXPLAIN ANALYZE SELECT key, count(*) AS n FROM r "
            "GROUP BY key ORDER BY key",
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via full scan; residual none",
            "  mode: vectorized",
            "  rows: est 10, actual 10 (q=1.00) | in 10, index hits 0, "
            "rotted skipped 0, span pruned 0, predicate evals 0",
            "aggregate by ['key'] computing ['count(*)']",
            "  rows: est 2, actual 2 (q=1.00) | in 10",
            "sort by ['key ASC']",
            "  rows: est 2, actual 2 (q=1.00) | in 2",
            "total: 2 row(s); worst misestimation q=1.00",
        ]

    def test_join_with_residual(self, engine):
        assert analyzed(
            engine,
            "EXPLAIN ANALYZE SELECT r.v, s.label FROM r "
            "JOIN s ON r.key = s.k WHERE r.v > 10",
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "hash join r x s on r.key = s.k; residual (r.v > 10)",
            "  rows: est 6, actual 6 (q=1.00) | in 12, predicate evals 10",
            "total: 6 row(s); worst misestimation q=1.00",
        ]

    def test_distinct_and_limit_report_misestimation(self, engine):
        # the estimator does not model distinct's reduction, so the
        # distinct node is the honest q-error showcase
        assert analyzed(
            engine, "EXPLAIN ANALYZE SELECT DISTINCT key FROM r LIMIT 1"
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via full scan; residual none",
            "  mode: vectorized",
            "  rows: est 10, actual 10 (q=1.00) | in 10, index hits 0, "
            "rotted skipped 0, span pruned 0, predicate evals 0",
            "distinct over output columns",
            "  rows: est 10, actual 2 (q=5.00) | in 10",
            "limit 1",
            "  rows: est 1, actual 1 (q=1.00) | in 2",
            "total: 1 row(s); worst misestimation q=5.00",
        ]

    def test_consume_executes_and_carries_verdict(self, engine):
        assert analyzed(
            engine, "EXPLAIN ANALYZE CONSUME SELECT v FROM r WHERE v > 50"
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via full scan; residual (v > 50)",
            "  mode: vectorized",
            "  rows: est 2, actual 2 (q=1.00) | in 10, index hits 0, "
            "rotted skipped 0, span pruned 0, predicate evals 10",
            "CONSUME: matching base rows are deleted (Law 2)",
            "  rows consumed: est 2, actual 2 (q=1.00) | in 2",
            "Tier-B consume verdict: partial",
            "total: 2 row(s); worst misestimation q=1.00",
        ]
        # ANALYZE has Postgres semantics: the consume really happened
        assert len(engine.execute("SELECT v FROM r")) == 8

    def test_delete_executes(self, engine):
        assert analyzed(
            engine, "EXPLAIN ANALYZE DELETE FROM r WHERE key = 'b'"
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via hash(key='b'); residual none",
            "  mode: vectorized",
            "DELETE: matching base rows are removed (no distillation)",
            "  rows consumed: est 5, actual 5 (q=1.00) | in 5, index hits 5, "
            "rotted skipped 0, span pruned 0, predicate evals 0",
            "total: 1 row(s); worst misestimation q=1.00",
        ]
        assert len(engine.execute("SELECT v FROM r")) == 5


class TestVectorizedPlanGoldens:
    """Filter reordering, span pruning, and mode labels in EXPLAIN."""

    def test_filters_reorder_by_selectivity(self):
        """The selective freshness conjunct is hoisted ahead of v > 50."""
        engine = build_rotted_engine()
        result = engine.execute("EXPLAIN SELECT v FROM r WHERE v > 50 AND f < 0.9")
        assert [row[0] for row in result.rows] == [
            "scan r via full scan; residual ((f < 0.9) AND (v > 50))",
            "  mode: vectorized",
            "  filters: (f < 0.9) [sel 0.20] -> (v > 50) [sel 0.22]",
            "  prune: rot spans of f only ((f < 0.9) rules out f = 1.0)",
        ]

    def test_span_pruning_in_analyze(self):
        """Pruning charges only the rot-spot footprint: 8 rows skipped
        before any column is touched, 2x2 predicate evals, est capped
        by the surviving span footprint."""
        engine = build_rotted_engine()
        assert analyzed(
            engine, "EXPLAIN ANALYZE SELECT v FROM r WHERE f < 0.9 AND v >= 0"
        ) == [
            "EXPLAIN ANALYZE (plan vs. actual)",
            "scan r via full scan; residual ((f < 0.9) AND (v >= 0))",
            "  mode: vectorized",
            "  filters: (f < 0.9) [sel 0.20] -> (v >= 0) [sel 1.00]",
            "  prune: rot spans of f only ((f < 0.9) rules out f = 1.0)",
            "  rows: est 2, actual 2 (q=1.00) | in 2, index hits 0, "
            "rotted skipped 0, span pruned 8, predicate evals 4",
            "total: 2 row(s); worst misestimation q=1.00",
        ]

    def test_hybrid_mode_for_string_conjunct(self):
        """A string conjunct cannot mask-compile; the scan goes hybrid."""
        engine = build_rotted_engine()
        result = engine.execute(
            "EXPLAIN SELECT v FROM r WHERE v > 50 AND key = 'a'"
        )
        assert [row[0] for row in result.rows] == [
            "scan r via full scan; residual ((v > 50) AND (key = 'a'))",
            "  mode: hybrid",
            "  filters: (v > 50) [sel 0.22] -> (key = 'a') [sel 0.50]",
        ]


GOLDEN_STATEMENTS = [
    "SELECT v FROM r WHERE v > 50",
    "SELECT key FROM r WHERE key = 'a'",
    "SELECT key, count(*) AS n FROM r GROUP BY key ORDER BY key",
    "SELECT r.v, s.label FROM r JOIN s ON r.key = s.k WHERE r.v > 10",
    "SELECT DISTINCT key FROM r LIMIT 1",
    "CONSUME SELECT v FROM r WHERE v > 50",
    "DELETE FROM r WHERE key = 'b'",
    "SELECT v FROM r WHERE f < 0.9 AND v >= 0",
]


class TestOnePlanOneExecutor:
    """EXPLAIN, EXPLAIN ANALYZE and execution share ``plan_nodes``."""

    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("sql", GOLDEN_STATEMENTS)
    def test_analyzed_labels_are_the_plan_lines(self, sql, vectorized):
        engine = build_engine(vectorized)
        stmt = parse(sql)
        plan = (plan_select if stmt.kind != "delete" else plan_delete)(
            stmt, engine.catalog
        )
        expected = render_plan(plan)  # rendered before ANALYZE eats rows
        lines = analyzed(engine, f"EXPLAIN ANALYZE {sql}")
        labels = [
            line
            for line in lines[1:-1]
            if not line.startswith(("  rows", "Tier-B consume verdict"))
        ]
        assert labels == expected

    def test_limit_still_never_over_pulls(self, engine, monkeypatch):
        """Without instrumentation the step helper adds no ``list()``:
        projection stays a generator that LIMIT stops after one row."""
        from repro.query import operators

        evaluated = []

        def counting(expr, ctx):
            evaluated.append(expr)
            return evaluate(expr, ctx)

        evaluate = operators.evaluate
        monkeypatch.setattr(operators, "evaluate", counting)
        assert engine.execute("SELECT v FROM r LIMIT 1").rows == [(0,)]
        assert len(evaluated) == 1
        # the analyzed run materializes between operators to count rows
        del evaluated[:]
        engine.execute("EXPLAIN ANALYZE SELECT v FROM r LIMIT 1")
        assert len(evaluated) == 10


class TestPlainExplainStillDescribes:
    def test_plain_explain_does_not_execute(self, engine):
        engine.execute("EXPLAIN DELETE FROM r WHERE key = 'b'")
        assert len(engine.execute("SELECT v FROM r")) == 10

    def test_render_plan_delete_shape(self, engine):
        plan = plan_delete(parse("DELETE FROM r WHERE v > 50"), engine.catalog)
        assert render_plan(plan) == [
            "scan r via full scan; residual (v > 50)",
            "  mode: vectorized",
            "DELETE: matching base rows are removed (no distillation)",
        ]

    def test_render_plan_consume_shape(self, engine):
        plan = plan_select(
            parse("CONSUME SELECT v FROM r WHERE v > 50"), engine.catalog
        )
        assert render_plan(plan) == [
            "scan r via full scan; residual (v > 50)",
            "  mode: vectorized",
            "CONSUME: matching base rows are deleted (Law 2)",
        ]

    def test_render_plan_join_residual(self, engine):
        plan = plan_select(
            parse("SELECT r.v FROM r JOIN s ON r.key = s.k WHERE r.v > 10"),
            engine.catalog,
        )
        assert render_plan(plan) == [
            "hash join r x s on r.key = s.k; residual (r.v > 10)",
        ]


class TestParserRules:
    def test_explain_analyze_insert_rejected(self, engine):
        with pytest.raises(ParseError, match="EXPLAIN supports only"):
            engine.execute("EXPLAIN ANALYZE INSERT INTO r (v) VALUES (1)")

    def test_analyze_is_a_soft_keyword(self):
        # a column named "analyze" must stay selectable
        stmt = parse("SELECT analyze FROM r")
        assert stmt.projections[0].expr.name == "analyze"

    def test_analyze_flag_round_trip(self):
        stmt = parse("EXPLAIN ANALYZE SELECT v FROM r")
        assert isinstance(stmt, ExplainStmt) and stmt.analyze
        plain = parse("EXPLAIN SELECT v FROM r")
        assert isinstance(plain, ExplainStmt) and not plain.analyze


# -- property: analyzed actuals equal plain-execution row counts --------

predicates = st.one_of(
    st.just(None),
    st.tuples(
        st.sampled_from(["v", "t"]),
        st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
        st.integers(min_value=-5, max_value=90),
    ),
)


@given(
    predicate=predicates,
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
    distinct=st.booleans(),
    vectorized=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_analyzed_actual_matches_plain_row_count(
    predicate, limit, distinct, vectorized
):
    """Holds on the masked (vectorized) paths and the row fallback alike."""
    sql = "SELECT key FROM r" if not distinct else "SELECT DISTINCT key FROM r"
    if predicate is not None:
        column, op, value = predicate
        sql += f" WHERE {column} {op} {value}"
    if limit is not None:
        sql += f" LIMIT {limit}"
    engine = build_engine(vectorized)
    expected = len(engine.execute(sql))
    lines = analyzed(engine, f"EXPLAIN ANALYZE {sql}")
    total = lines[-1]
    match = re.match(r"total: (\d+) row\(s\)", total)
    assert match is not None, total
    assert int(match.group(1)) == expected
