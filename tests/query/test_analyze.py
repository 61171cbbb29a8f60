"""Tier-B consumption analysis: normalization, classification, footprint.

Covers the predicate-normalization algebra (NOT pushdown, BETWEEN,
AND/OR precedence, literal folding), the verdict lattice
(none/partial/total/invalid), histogram-backed footprint estimation,
``EXPLAIN CONSUME`` end to end through the database and the shell,
and the ``strict_consume`` refusal gate.
"""

import pytest

from repro.core.db import FungusDB
from repro.errors import ConsumeError
from repro.lint.analyze import ConsumeAnalyzer
from repro.query.ast_nodes import BinaryOp, Literal, UnaryOp
from repro.query.normalize import (
    Truth,
    classify,
    conjuncts,
    disjuncts,
    normalize,
)
from repro.query.parser import parse
from repro.storage.schema import Schema


def pred(sql_predicate: str):
    """Parse a bare predicate via a throwaway SELECT."""
    stmt = parse(f"SELECT x FROM r WHERE {sql_predicate}")
    return stmt.where


def norm_sql(sql_predicate: str) -> str:
    return normalize(pred(sql_predicate)).to_sql()


class TestNotPushdown:
    def test_not_comparison_flips_operator(self):
        assert norm_sql("NOT x > 3") == "(x <= 3)"
        assert norm_sql("NOT x = 3") == "(x != 3)"
        assert norm_sql("NOT x != 3") == "(x = 3)"
        assert norm_sql("NOT x <= 3") == "(x > 3)"

    def test_de_morgan_over_and(self):
        assert norm_sql("NOT (x > 3 AND y < 2)") == "((x <= 3) OR (y >= 2))"

    def test_de_morgan_over_or(self):
        assert norm_sql("NOT (x > 3 OR y < 2)") == "((x <= 3) AND (y >= 2))"

    def test_double_negation_cancels(self):
        assert norm_sql("NOT (NOT x > 3)") == "(x > 3)"

    def test_not_between_becomes_negated_between(self):
        normalized = normalize(pred("NOT x BETWEEN 1 AND 5"))
        assert normalized.negated
        assert normalized.to_sql() == "(x NOT BETWEEN 1 AND 5)"

    def test_not_is_null_flips(self):
        assert "IS NOT NULL" in norm_sql("NOT x IS NULL")

    def test_not_in_list_flips(self):
        assert "NOT IN" in norm_sql("NOT x IN (1, 2)")


class TestBetween:
    def test_between_classifies_like_its_expansion(self):
        schema = Schema.of(x="int")
        a = classify(pred("x BETWEEN 1 AND 5"), schema=schema)
        b = classify(pred("x >= 1 AND x <= 5"), schema=schema)
        assert a == b == Truth.CONTINGENT

    def test_between_contradiction_with_range(self):
        assert (
            classify(pred("x BETWEEN 1 AND 5 AND x > 9"), schema=Schema.of(x="int"))
            is Truth.ALWAYS_FALSE
        )

    def test_empty_between_is_always_false(self):
        assert (
            classify(pred("x BETWEEN 5 AND 1"), schema=Schema.of(x="int"))
            is Truth.ALWAYS_FALSE
        )

    def test_not_between_tautology_on_empty_range(self):
        # NOT (5 <= x <= 1) covers everything, but only a non-nullable
        # column may promise it; the schema-less call stays contingent
        assert classify(pred("NOT x BETWEEN 5 AND 1")) is Truth.CONTINGENT


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        # a OR b AND c parses as a OR (b AND c)
        expr = pred("x = 1 OR x = 2 AND y = 3")
        top = disjuncts(normalize(expr))
        assert len(top) == 2

    def test_conjunct_flattening(self):
        expr = normalize(pred("x > 1 AND (y > 2 AND z > 3)"))
        assert len(conjuncts(expr)) == 3

    def test_mixed_and_or_contradiction_detected_per_branch(self):
        # each OR branch is separately contradictory
        verdict = classify(
            pred("(x > 5 AND x < 2) OR (x > 9 AND x < 7)"),
            schema=Schema.of(x="int"),
        )
        assert verdict is Truth.ALWAYS_FALSE

    def test_one_live_branch_keeps_it_contingent(self):
        verdict = classify(
            pred("(x > 5 AND x < 2) OR x = 3"), schema=Schema.of(x="int")
        )
        assert verdict is Truth.CONTINGENT


class TestLiteralFolding:
    def test_always_true_literal(self):
        assert classify(pred("1 = 1")) is Truth.ALWAYS_TRUE
        assert classify(pred("TRUE")) is Truth.ALWAYS_TRUE

    def test_always_false_literal(self):
        assert classify(pred("1 = 2")) is Truth.ALWAYS_FALSE
        assert classify(pred("FALSE")) is Truth.ALWAYS_FALSE

    def test_constant_arithmetic_folds(self):
        folded = normalize(pred("2 + 2 = 4"))
        assert isinstance(folded, Literal)
        assert folded.value is True

    def test_true_branch_absorbs_and(self):
        assert norm_sql("1 = 1 AND x > 3") == "(x > 3)"

    def test_false_branch_absorbs_or(self):
        assert norm_sql("1 = 2 OR x > 3") == "(x > 3)"

    def test_non_constant_side_survives(self):
        normalized = normalize(pred("x + 1 > 3"))
        assert isinstance(normalized, BinaryOp)
        assert not isinstance(normalized, (Literal, UnaryOp))


class TestVerdicts:
    @pytest.fixture
    def db(self):
        db = FungusDB(seed=7)
        db.create_table("r", Schema.of(k="int", v="int"))
        for i in range(50):
            db.insert("r", {"k": i, "v": i * 2})
        return db

    def test_partial(self, db):
        report = db.explain_consume("CONSUME SELECT k FROM r WHERE v > 50")
        assert report.verdict == "partial"
        assert 0 < report.estimated_rows < 50

    def test_none_via_contradiction(self, db):
        report = db.explain_consume(
            "CONSUME SELECT k FROM r WHERE v > 50 AND v < 10"
        )
        assert report.verdict == "none"
        assert report.estimated_rows == 0

    def test_total_via_missing_where(self, db):
        report = db.explain_consume("CONSUME SELECT k FROM r")
        assert report.verdict == "total"
        assert report.estimated_rows == 50
        assert report.extent == 50

    def test_total_via_freshness_domain(self, db):
        # f ∈ [0, 1] is a maintained invariant, so f >= 0 is total
        report = db.explain_consume("CONSUME SELECT k FROM r WHERE f >= 0.0")
        assert report.verdict == "total"

    def test_invalid_unknown_column(self, db):
        report = db.explain_consume(
            "CONSUME SELECT k FROM r WHERE nope > 3"
        )
        assert report.verdict == "invalid"
        assert any("nope" in e for e in report.errors)

    def test_invalid_type_mismatch(self, db):
        report = db.explain_consume(
            "CONSUME SELECT k FROM r WHERE v > 'ten'"
        )
        assert report.verdict == "invalid"

    def test_invalid_type_mismatch_inside_function_argument(self, db):
        # the type walk reaches every node, function arguments included:
        # this used to pass analysis and raise only at run time
        report = db.explain_consume(
            "CONSUME SELECT k FROM r WHERE coalesce(v > 'x', FALSE)"
        )
        assert report.verdict == "invalid"
        assert any("'x'" in e for e in report.errors)

    @pytest.mark.parametrize(
        "where, verdict, estimated, selectivity",
        [
            ("v > 50", "partial", 24, 0.48693877551020404),
            ("v > 50 AND v < 10", "none", 0, 0.0),
            ("f >= 0.0", "total", 50, 1.0),
            (
                "k IN (1, 2, 3) OR NOT (v BETWEEN 10 AND 60)",
                "partial",
                26,
                0.5288489795918367,
            ),
            ("k = 7 AND f IS NOT NULL", "partial", 1, 0.02),
        ],
    )
    def test_estimates_pinned_across_the_stats_source(
        self, db, where, verdict, estimated, selectivity
    ):
        """Values recorded with ``collect_stats`` feeding the analyzer;
        the lazy ``planner_stats`` view must reproduce them exactly."""
        report = db.explain_consume(f"CONSUME SELECT k FROM r WHERE {where}")
        assert report.verdict == verdict
        assert report.estimated_rows == estimated
        assert report.selectivity == pytest.approx(selectivity, abs=1e-12)

    def test_analysis_does_not_consume(self, db):
        db.explain_consume("CONSUME SELECT k FROM r")
        assert db.extent("r") == 50

    def test_explain_consume_sql_statement(self, db):
        result = db.query("EXPLAIN CONSUME SELECT k FROM r WHERE v > 50")
        assert result.columns == ("explain",)
        text = "\n".join(row[0] for row in result.rows)
        assert "verdict:    partial" in text
        assert db.extent("r") == 50

    def test_explain_plain_select_renders_plan(self, db):
        result = db.query("EXPLAIN SELECT k FROM r WHERE v > 50 LIMIT 2")
        text = "\n".join(row[0] for row in result.rows)
        assert "scan r" in text
        assert "limit 2" in text

    def test_limit_warning(self, db):
        report = db.explain_consume(
            "CONSUME SELECT k FROM r WHERE v > 50 LIMIT 1"
        )
        assert any("LIMIT" in w for w in report.warnings)


class TestFootprintEstimation:
    def test_histogram_range_estimate_is_reasonable(self):
        db = FungusDB(seed=1)
        db.create_table("r", Schema.of(v="int"))
        for i in range(100):
            db.insert("r", {"v": i})
        report = db.explain_consume("CONSUME SELECT v FROM r WHERE v >= 75")
        assert report.verdict == "partial"
        # uniform data: ~25% of 100 rows, allow histogram-bin slack
        assert 15 <= report.estimated_rows <= 35

    def test_verdict_matches_execution(self):
        db = FungusDB(seed=2)
        db.create_table("r", Schema.of(v="int"))
        for i in range(30):
            db.insert("r", {"v": i})
        for sql in (
            "CONSUME SELECT v FROM r WHERE v < 10",
            "CONSUME SELECT v FROM r WHERE v > 100",
            "CONSUME SELECT v FROM r WHERE v >= 0 OR v < 0",
        ):
            report = db.explain_consume(sql)
            before = db.extent("r")
            consumed = db.query(sql).stats.rows_consumed
            if report.verdict == "none":
                assert consumed == 0
            elif report.verdict == "total":
                assert consumed == before


class TestStrictConsume:
    def test_strict_refuses_total(self):
        db = FungusDB(seed=3, strict_consume=True)
        db.create_table("r", Schema.of(v="int"))
        db.insert("r", {"v": 1})
        with pytest.raises(ConsumeError, match="strict_consume"):
            db.query("CONSUME SELECT v FROM r")
        assert db.extent("r") == 1  # nothing was consumed

    def test_strict_allows_partial(self):
        db = FungusDB(seed=3, strict_consume=True)
        db.create_table("r", Schema.of(v="int"))
        for i in range(5):
            db.insert("r", {"v": i})
        result = db.query("CONSUME SELECT v FROM r WHERE v < 2")
        assert result.stats.rows_consumed == 2

    def test_default_db_is_permissive(self):
        db = FungusDB(seed=3)
        db.create_table("r", Schema.of(v="int"))
        db.insert("r", {"v": 1})
        assert db.query("CONSUME SELECT v FROM r").stats.rows_consumed == 1


class TestAnalyzerStandalone:
    def test_schemaless_analysis_still_classifies(self):
        analyzer = ConsumeAnalyzer()
        report = analyzer.analyze(
            "CONSUME SELECT v FROM r WHERE v > 5 AND v < 2"
        )
        assert report.verdict == "none"
        assert report.extent is None

    def test_rejects_non_consume(self):
        with pytest.raises(ConsumeError):
            ConsumeAnalyzer().analyze("SELECT v FROM r")


class TestObservability:
    def test_analysis_publishes_event_and_metric(self):
        from repro.obs.collector import BusCollector
        from repro.obs.export import render_prometheus

        db = FungusDB(seed=4)
        collector = BusCollector().attach(db)
        db.create_table("r", Schema.of(v="int"))
        db.insert("r", {"v": 1})
        db.explain_consume("CONSUME SELECT v FROM r WHERE v > 5")
        db.explain_consume("CONSUME SELECT v FROM r")
        text = render_prometheus(collector.registry)
        assert 'repro_consume_analyzed_total{table="r",verdict="partial"} 1' in text
        assert 'repro_consume_analyzed_total{table="r",verdict="total"} 1' in text
