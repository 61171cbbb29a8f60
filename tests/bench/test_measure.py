"""Tests for the benchmarks' shared timer (benchmarks/timing.py)."""

import pytest

from benchmarks.timing import time_callable
from repro.errors import BenchError


class TestTimeCallable:
    def test_repeats_validated(self):
        with pytest.raises(BenchError):
            time_callable(lambda: None, repeats=0)

    def test_stats_ordering(self):
        stats = time_callable(lambda: sum(range(100)), repeats=5)
        assert 0 < stats["min"] <= stats["mean"] <= stats["max"]

    def test_function_actually_runs(self):
        calls = []
        time_callable(lambda: calls.append(1), repeats=3)
        assert len(calls) == 3
