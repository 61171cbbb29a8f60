"""Arrival processes: how many tuples arrive per decay-clock tick.

The paper's motivation is an arrival process: "Every 1.5 year we double
the amount of data" — the chessboard fable. :class:`ChessboardArrivals`
models exactly that; the others are the standard shapes experiments
sweep over.
"""

from __future__ import annotations

import math
import random
from typing import Protocol

from repro.errors import WorkloadError


class ArrivalProcess(Protocol):
    """Protocol: ``count_at(tick)`` tuples arrive at each tick."""

    def count_at(self, tick: int) -> int:
        """Number of arrivals at ``tick`` (deterministic per instance)."""


class ConstantArrivals:
    """Exactly ``rate`` arrivals every tick."""

    def __init__(self, rate: int) -> None:
        if rate < 0:
            raise WorkloadError(f"rate must be non-negative, got {rate}")
        self.rate = rate

    def count_at(self, tick: int) -> int:
        return self.rate


class PoissonArrivals:
    """Poisson(λ) arrivals per tick, deterministic per (seed, tick)."""

    def __init__(self, rate: float, seed: int = 0) -> None:
        if rate < 0:
            raise WorkloadError(f"rate must be non-negative, got {rate}")
        self.rate = rate
        self.seed = seed

    def count_at(self, tick: int) -> int:
        rng = random.Random(self.seed * 1_000_003 + tick)
        # Knuth's algorithm; fine for the modest rates experiments use
        limit = math.exp(-self.rate)
        count = 0
        product = rng.random()
        while product > limit:
            count += 1
            product *= rng.random()
        return count


class ChessboardArrivals:
    """The fable: arrivals double every ``doubling_period`` ticks.

    Square ``k`` of the board holds ``2^k`` grains; here tick ``t`` is
    on square ``t // doubling_period`` and receives
    ``initial * 2^square`` arrivals, capped so the simulation stays on
    a laptop (the cap itself is the paper's point — you *can't* keep
    filling squares).
    """

    def __init__(
        self, initial: int = 1, doubling_period: int = 1, cap: int = 1_000_000
    ) -> None:
        if initial <= 0 or doubling_period <= 0 or cap <= 0:
            raise WorkloadError(
                f"bad chessboard parameters: initial={initial} "
                f"period={doubling_period} cap={cap}"
            )
        self.initial = initial
        self.doubling_period = doubling_period
        self.cap = cap

    def count_at(self, tick: int) -> int:
        square = tick // self.doubling_period
        if square >= 63:
            return self.cap
        return min(self.initial * (2 ** square), self.cap)
