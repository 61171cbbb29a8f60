"""Tests for repro.workload.arrival."""

import pytest

from repro.errors import WorkloadError
from repro.workload.arrival import (
    ChessboardArrivals,
    ConstantArrivals,
    PoissonArrivals,
)


class TestConstant:
    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            ConstantArrivals(-1)

    def test_constant(self):
        arr = ConstantArrivals(7)
        assert [arr.count_at(t) for t in range(5)] == [7] * 5


class TestPoisson:
    def test_negative_rejected(self):
        with pytest.raises(WorkloadError):
            PoissonArrivals(-1)

    def test_deterministic_per_tick(self):
        a, b = PoissonArrivals(5.0, seed=1), PoissonArrivals(5.0, seed=1)
        assert [a.count_at(t) for t in range(20)] == [b.count_at(t) for t in range(20)]

    def test_mean_close_to_rate(self):
        arr = PoissonArrivals(10.0, seed=2)
        counts = [arr.count_at(t) for t in range(2000)]
        assert sum(counts) / len(counts) == pytest.approx(10.0, rel=0.05)

    def test_zero_rate(self):
        arr = PoissonArrivals(0.0)
        assert arr.count_at(3) == 0


class TestChessboard:
    def test_validation(self):
        with pytest.raises(WorkloadError):
            ChessboardArrivals(initial=0)

    def test_doubling(self):
        arr = ChessboardArrivals(initial=1, doubling_period=1, cap=10**9)
        assert [arr.count_at(t) for t in range(6)] == [1, 2, 4, 8, 16, 32]

    def test_doubling_period(self):
        arr = ChessboardArrivals(initial=3, doubling_period=2, cap=10**9)
        assert [arr.count_at(t) for t in range(6)] == [3, 3, 6, 6, 12, 12]

    def test_cap(self):
        arr = ChessboardArrivals(initial=1, doubling_period=1, cap=100)
        assert arr.count_at(20) == 100

    def test_extreme_square_capped(self):
        arr = ChessboardArrivals(initial=1, doubling_period=1, cap=500)
        assert arr.count_at(70) == 500  # square >= 63 shortcut
