"""FLOAT columns accept NaN and ±inf; neither law may die on them.

Regressions: planner statistics raised ``ValueError: cannot convert
float NaN to integer`` out of the histogram builder, and a tick that
evicted 65+ NaNs raised ``min() arg is an empty sequence`` out of the
summary histogram's closest-pair merge, mid-eviction.
"""

import math

import pytest

from repro.core.db import FungusDB
from repro.fungi import LinearDecayFungus
from repro.storage.schema import Schema


@pytest.fixture(params=[math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def readings(request):
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(sensor="int", temp="float"))
    db.insert_many("r", [{"sensor": i, "temp": float(i)} for i in range(10)])
    db.insert("r", {"sensor": 10, "temp": request.param})
    return db


class TestPlannerStatistics:
    def test_two_conjuncts_on_a_column_holding_a_non_finite_value(self, readings):
        result = readings.query("SELECT sensor FROM r WHERE temp > 5 AND sensor > 3")
        assert sorted(row[0] for row in result.rows if row[0] < 10) == [6, 7, 8, 9]

    def test_explain_consume_estimates_from_the_finite_values(self, readings):
        report = readings.explain_consume("CONSUME SELECT sensor FROM r WHERE temp > 5")
        assert report.verdict == "partial"
        assert 0 < report.estimated_rows < 11

    def test_consume_with_two_conjuncts(self, readings):
        result = readings.query("CONSUME SELECT sensor FROM r WHERE temp > 5 AND temp < 8")
        assert sorted(row[0] for row in result.rows) == [6, 7]
        assert len(readings.tables["r"]) == 9


def test_a_tick_evicting_many_nans_completes():
    db = FungusDB(seed=1)
    db.create_table("r", Schema.of(x="float"), fungus=LinearDecayFungus(rate=0.5))
    db.insert_many(
        "r", [{"x": math.nan if i % 2 else float(i)} for i in range(200)]
    )
    db.tick(3)
    assert len(db.tables["r"]) == 0
    column = db.merged_summary("r").columns["x"]
    assert column.count == 200
    assert (column.histogram.total, column.histogram.non_finite) == (100, 100)
    assert 0.0 <= column.estimate_quantile(0.5) <= 198.0
