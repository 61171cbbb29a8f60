"""Tests for repro.query.planner (validation and index selection)."""

import pytest

from repro.errors import CatalogError, PlanError
from repro.query import parse, plan_select
from repro.query.planner import IndexAccess, JoinPlan, ScanPlan


def plan(catalog, sql):
    return plan_select(parse(sql), catalog)


class TestValidation:
    def test_unknown_table(self, catalog):
        with pytest.raises(CatalogError, match="unknown table"):
            plan(catalog, "SELECT v FROM nope")

    def test_unknown_column(self, catalog):
        with pytest.raises(PlanError, match="unknown column"):
            plan(catalog, "SELECT zzz FROM r")

    def test_unknown_qualifier(self, catalog):
        with pytest.raises(PlanError, match="qualifier"):
            plan(catalog, "SELECT s.v FROM r")

    def test_unknown_column_in_where(self, catalog):
        with pytest.raises(PlanError, match="unknown column"):
            plan(catalog, "SELECT v FROM r WHERE zzz = 1")

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(PlanError, match="HAVING"):
            plan(catalog, "SELECT v FROM r WHERE count(*) > 1")

    def test_bare_column_outside_group_by(self, catalog):
        with pytest.raises(PlanError, match="GROUP BY"):
            plan(catalog, "SELECT key, v, count(*) FROM r GROUP BY key")

    def test_having_without_group_or_aggregate(self, catalog):
        with pytest.raises(PlanError, match="HAVING"):
            plan(catalog, "SELECT v FROM r HAVING v > 1")

    def test_duplicate_output_names(self, catalog):
        with pytest.raises(PlanError, match="duplicate output"):
            plan(catalog, "SELECT v, v FROM r")

    def test_star_with_other_projections(self, catalog):
        with pytest.raises(PlanError):
            plan_select(parse("SELECT *, v FROM r"), catalog)

    def test_star_with_group_by(self, catalog):
        with pytest.raises(PlanError, match="GROUP BY"):
            plan(catalog, "SELECT * FROM r GROUP BY key")

    def test_star_expansion(self, catalog):
        p = plan(catalog, "SELECT * FROM r")
        assert p.output_columns == ("t", "f", "v", "key")

    def test_order_by_alias_rewritten(self, catalog):
        p = plan(catalog, "SELECT v AS val FROM r ORDER BY val")
        assert p.order_by[0].expr.to_sql() == "v"

    def test_order_by_aggregate_requires_grouping(self, catalog):
        with pytest.raises(PlanError):
            plan(catalog, "SELECT v FROM r ORDER BY count(*)")

    def test_consume_with_join_rejected(self, catalog):
        catalog.create_table("s", _schema_s())
        with pytest.raises(PlanError, match="CONSUME"):
            plan(catalog, "CONSUME SELECT v FROM r JOIN s ON r.key = s.key")

    def test_duplicate_binding(self, catalog):
        catalog.create_table("s", _schema_s())
        with pytest.raises(PlanError, match="duplicate table binding"):
            plan(catalog, "SELECT 1 FROM r x JOIN s x ON x.key = x.key")


def _schema_s():
    from repro.storage import Schema

    return Schema.of(key="str", weight="int")


class TestIndexSelection:
    def test_no_index_full_scan(self, catalog):
        p = plan(catalog, "SELECT v FROM r WHERE key = 'a'")
        assert isinstance(p.source, ScanPlan)
        assert p.source.index is None
        assert p.source.residual is not None

    def test_hash_index_chosen(self, catalog):
        catalog.create_hash_index("r", "key")
        stmt = parse("SELECT v FROM r WHERE key = 'a'")
        p = plan_select(stmt, catalog)
        assert p.source.index == IndexAccess(
            "hash-eq", "key", stmt.where, eq_value="a"
        )
        assert p.source.residual is None

    def test_hash_index_with_residual(self, catalog):
        catalog.create_hash_index("r", "key")
        p = plan(catalog, "SELECT v FROM r WHERE key = 'a' AND v > 3")
        assert p.source.index.kind == "hash-eq"
        assert p.source.residual is not None

    def test_reversed_comparison_normalised(self, catalog):
        catalog.create_hash_index("r", "key")
        p = plan(catalog, "SELECT v FROM r WHERE 'a' = key")
        assert p.source.index.eq_value == "a"

    def test_sorted_index_range(self, catalog):
        catalog.create_sorted_index("r", "t")
        p = plan(catalog, "SELECT v FROM r WHERE t >= 3")
        idx = p.source.index
        assert idx.kind == "sorted-range"
        assert idx.low == 3 and idx.include_low

    def test_sorted_index_strict_bound(self, catalog):
        catalog.create_sorted_index("r", "t")
        p = plan(catalog, "SELECT v FROM r WHERE t < 5")
        idx = p.source.index
        assert idx.high == 5 and not idx.include_high

    def test_between_uses_sorted_index(self, catalog):
        catalog.create_sorted_index("r", "t")
        p = plan(catalog, "SELECT v FROM r WHERE t BETWEEN 2 AND 4")
        idx = p.source.index
        assert (idx.low, idx.high) == (2, 4)
        # the access keeps the conjunct whole, so it estimates as one interval
        assert idx.conjunct.to_sql() == "(t BETWEEN 2 AND 4)"

    def test_or_disables_index(self, catalog):
        catalog.create_hash_index("r", "key")
        p = plan(catalog, "SELECT v FROM r WHERE key = 'a' OR v = 1")
        assert p.source.index is None

    def test_describe(self):
        key_eq = parse("SELECT v FROM r WHERE key = 'a'").where
        t_range = parse("SELECT v FROM r WHERE t BETWEEN 1 AND 2").where
        assert "hash" in IndexAccess("hash-eq", "key", key_eq, eq_value="a").describe()
        assert "range" in IndexAccess(
            "sorted-range", "t", t_range, low=1, high=2
        ).describe()


class TestJoinPlanning:
    def test_join_keys_resolved_by_side(self, catalog):
        catalog.create_table("s", _schema_s())
        p = plan(catalog, "SELECT r.v, s.weight FROM r JOIN s ON s.key = r.key")
        assert isinstance(p.source, JoinPlan)
        assert p.source.left_key == "r.key"
        assert p.source.right_key == "s.key"

    def test_join_on_same_side_rejected(self, catalog):
        catalog.create_table("s", _schema_s())
        with pytest.raises(PlanError, match="each table"):
            plan(catalog, "SELECT r.v FROM r JOIN s ON r.key = r.key")

    def test_join_where_becomes_residual(self, catalog):
        catalog.create_table("s", _schema_s())
        p = plan(catalog, "SELECT r.v FROM r JOIN s ON r.key = s.key WHERE s.weight > 1")
        assert p.source.residual is not None

    def test_ambiguous_unqualified_column(self, catalog):
        catalog.create_table("s", _schema_s())
        with pytest.raises(PlanError, match="ambiguous"):
            plan(catalog, "SELECT key FROM r JOIN s ON r.key = s.key")


class TestAggregatePlanning:
    def test_aggregates_deduplicated(self, catalog):
        p = plan(catalog, "SELECT count(*), count(*) + 1 AS n1 FROM r")
        assert len(p.aggregate.aggregates) == 1

    def test_group_keys_resolved(self, catalog):
        p = plan(catalog, "SELECT key, count(*) FROM r GROUP BY key")
        assert p.aggregate.group_names == ("key",)

    def test_global_aggregate_without_group_by(self, catalog):
        p = plan(catalog, "SELECT sum(v) FROM r")
        assert p.aggregate is not None
        assert p.aggregate.group_keys == ()

    def test_plain_select_has_no_aggregate(self, catalog):
        assert plan(catalog, "SELECT v FROM r").aggregate is None
