"""End-to-end tests for repro.query.executor (QueryEngine)."""

import pytest

from repro.errors import ExecutionError
from repro.query import QueryEngine, parse, plan_select
from repro.storage import RowSet, Schema


@pytest.fixture
def engine(catalog):
    return QueryEngine(catalog)


class TestBasicSelect:
    def test_star(self, engine):
        res = engine.execute("SELECT * FROM r")
        assert res.columns == ("t", "f", "v", "key")
        assert len(res) == 10

    def test_projection_order(self, engine):
        res = engine.execute("SELECT v, t FROM r LIMIT 1")
        assert res.columns == ("v", "t")
        assert res.rows[0] == (0, 0.0)

    def test_where(self, engine):
        res = engine.execute("SELECT v FROM r WHERE v > 50")
        assert res.column("v") == [64, 81]

    def test_expression_projection(self, engine):
        res = engine.execute("SELECT v * 2 AS d FROM r WHERE t = 3")
        assert res.scalar() == 18

    def test_scalar_function(self, engine):
        res = engine.execute("SELECT upper(key) u FROM r WHERE t = 0")
        assert res.scalar() == "B"

    def test_limit(self, engine):
        assert len(engine.execute("SELECT v FROM r LIMIT 3")) == 3

    def test_limit_zero(self, engine):
        assert len(engine.execute("SELECT v FROM r LIMIT 0")) == 0

    def test_distinct(self, engine):
        res = engine.execute("SELECT DISTINCT key FROM r ORDER BY key")
        assert res.rows == [("a",), ("b",)]

    def test_empty_table(self, engine, catalog):
        catalog.create_table("empty", Schema.of(x="int"))
        assert len(engine.execute("SELECT x FROM empty")) == 0


class TestOrderBy:
    def test_desc(self, engine):
        res = engine.execute("SELECT v FROM r ORDER BY v DESC LIMIT 2")
        assert res.column("v") == [81, 64]

    def test_multi_key(self, engine):
        res = engine.execute("SELECT key, v FROM r ORDER BY key, v DESC LIMIT 3")
        assert res.rows[0] == ("a", 81)

    def test_order_by_alias(self, engine):
        res = engine.execute("SELECT v * -1 AS neg FROM r ORDER BY neg LIMIT 1")
        assert res.scalar() == -81

    def test_order_by_expression(self, engine):
        res = engine.execute("SELECT v FROM r ORDER BY v % 3, v LIMIT 2")
        assert res.column("v") == [0, 9]


class TestAggregation:
    def test_count_star_empty(self, engine, catalog):
        catalog.create_table("empty", Schema.of(x="int"))
        assert engine.execute("SELECT count(*) FROM empty").scalar() == 0

    def test_global_aggregates(self, engine):
        res = engine.execute("SELECT count(*), sum(v), min(v), max(v), avg(v) FROM r")
        assert res.rows == [(10, 285, 0, 81, 28.5)]

    def test_group_by(self, engine):
        res = engine.execute(
            "SELECT key, count(*) AS n, sum(v) s FROM r GROUP BY key ORDER BY key"
        )
        assert res.rows == [("a", 5, 165), ("b", 5, 120)]

    def test_having(self, engine):
        res = engine.execute(
            "SELECT key, sum(v) s FROM r GROUP BY key HAVING sum(v) > 150"
        )
        assert res.rows == [("a", 165)]

    def test_having_without_group_by_filters_global(self, engine):
        res = engine.execute("SELECT count(*) FROM r HAVING count(*) > 100")
        assert len(res) == 0

    def test_aggregate_inside_expression(self, engine):
        res = engine.execute("SELECT max(v) - min(v) AS span FROM r")
        assert res.scalar() == 81

    def test_count_distinct(self, engine):
        assert engine.execute("SELECT count(DISTINCT key) FROM r").scalar() == 2

    def test_order_by_aggregate(self, engine):
        res = engine.execute(
            "SELECT key, sum(v) FROM r GROUP BY key ORDER BY sum(v) DESC"
        )
        assert res.rows[0][0] == "a"


class TestIndexedExecution:
    def test_hash_index_used(self, engine, catalog):
        catalog.create_hash_index("r", "key")
        res = engine.execute("SELECT count(*) FROM r WHERE key = 'a'")
        assert res.scalar() == 5
        assert res.stats.used_index.startswith("hash")
        assert res.stats.rows_scanned == 5

    def test_sorted_index_used(self, engine, catalog):
        catalog.create_sorted_index("r", "t")
        res = engine.execute("SELECT v FROM r WHERE t BETWEEN 2 AND 4 ORDER BY t")
        assert res.column("v") == [4, 9, 16]
        assert res.stats.used_index.startswith("range")

    def test_index_with_residual(self, engine, catalog):
        catalog.create_hash_index("r", "key")
        res = engine.execute("SELECT v FROM r WHERE key = 'a' AND v > 50")
        assert res.column("v") == [81]

    def test_index_and_full_scan_agree(self, engine, catalog):
        full = engine.execute("SELECT v FROM r WHERE t >= 5 ORDER BY v").rows
        catalog.create_sorted_index("r", "t")
        indexed = engine.execute("SELECT v FROM r WHERE t >= 5 ORDER BY v").rows
        assert full == indexed


class TestJoin:
    @pytest.fixture
    def with_dims(self, catalog):
        dims = catalog.create_table("dims", Schema.of(key="str", weight="int"))
        dims.append({"key": "a", "weight": 10})
        dims.append({"key": "b", "weight": 20})
        return catalog

    def test_join_matches(self, engine, with_dims):
        res = engine.execute(
            "SELECT r.v, dims.weight FROM r JOIN dims ON r.key = dims.key "
            "WHERE r.v > 60 ORDER BY r.v"
        )
        assert res.rows == [(64, 20), (81, 10)]

    def test_join_aliases(self, engine, with_dims):
        res = engine.execute(
            "SELECT x.v FROM r x JOIN dims d ON x.key = d.key WHERE d.weight = 10"
        )
        assert sorted(res.column("v")) == [1, 9, 25, 49, 81]

    def test_join_with_aggregation(self, engine, with_dims):
        res = engine.execute(
            "SELECT dims.weight, count(*) n FROM r JOIN dims ON r.key = dims.key "
            "GROUP BY dims.weight ORDER BY dims.weight"
        )
        assert res.rows == [(10, 5), (20, 5)]

    def test_join_no_matches(self, engine, catalog):
        other = catalog.create_table("other", Schema.of(key="str"))
        other.append({"key": "zzz"})
        res = engine.execute("SELECT r.v FROM r JOIN other ON r.key = other.key")
        assert len(res) == 0


class TestConsume:
    def test_consume_deletes_matches(self, engine, catalog):
        res = engine.execute("CONSUME SELECT v FROM r WHERE v > 50")
        assert res.consumed == RowSet([8, 9])
        assert res.stats.rows_consumed == 2
        assert len(catalog.table("r")) == 8

    def test_consume_all(self, engine, catalog):
        engine.execute("CONSUME SELECT * FROM r")
        assert len(catalog.table("r")) == 0

    def test_consume_nothing(self, engine, catalog):
        res = engine.execute("CONSUME SELECT v FROM r WHERE v > 1000")
        assert len(res.consumed) == 0
        assert len(catalog.table("r")) == 10

    def test_consume_with_limit_still_deletes_all_matches(self, engine, catalog):
        res = engine.execute("CONSUME SELECT v FROM r WHERE v > 10 LIMIT 1")
        assert len(res.rows) == 1
        assert len(res.consumed) == 6  # 16, 25, 36, 49, 64, 81
        assert len(catalog.table("r")) == 4

    def test_plain_select_does_not_consume(self, engine, catalog):
        res = engine.execute("SELECT v FROM r WHERE v > 50")
        assert len(res.consumed) == 0
        assert len(catalog.table("r")) == 10

    def test_consecutive_consumes_drain(self, engine, catalog):
        first = engine.execute("CONSUME SELECT v FROM r WHERE key = 'a'")
        second = engine.execute("CONSUME SELECT v FROM r WHERE key = 'a'")
        assert len(first.consumed) == 5
        assert len(second.consumed) == 0


class TestAccessHooks:
    def test_access_hook_sees_matches(self, engine):
        seen = []
        engine.add_access_hook(lambda name, rows: seen.append((name, rows)))
        engine.execute("SELECT v FROM r WHERE v > 50")
        assert seen == [("r", RowSet([8, 9]))]

    def test_access_hook_not_called_on_empty(self, engine):
        seen = []
        engine.add_access_hook(lambda name, rows: seen.append(rows))
        engine.execute("SELECT v FROM r WHERE v > 1000")
        assert seen == []


class TestExplain:
    def test_explain_does_not_execute(self, catalog):
        plan = plan_select(parse("CONSUME SELECT v FROM r WHERE v > 50"), catalog)
        assert plan.consume
        assert len(catalog.table("r")) == 10


class TestErrors:
    def test_type_error_at_runtime(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT v FROM r WHERE key > 5")

    def test_unorderable_sort(self, engine):
        with pytest.raises(ExecutionError):
            engine.execute("SELECT v FROM r ORDER BY key + v")
