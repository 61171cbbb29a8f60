"""Seeded value distributions for workload generation."""

from __future__ import annotations

import bisect
import math
import random
from typing import Sequence, TypeVar

from repro.errors import WorkloadError

T = TypeVar("T")


class ZipfInts:
    """Zipf-distributed ranks ``1..n`` with exponent ``s``.

    Sampled by inverse CDF over the precomputed harmonic weights —
    exact, and fast enough for the table sizes the experiments use.
    """

    def __init__(self, n: int, s: float = 1.1, seed: int = 0) -> None:
        if n <= 0:
            raise WorkloadError(f"need n > 0, got {n}")
        if s <= 0:
            raise WorkloadError(f"need s > 0, got {s}")
        self.n = n
        self.s = s
        self._rng = random.Random(seed)
        weights = [1.0 / (k ** s) for k in range(1, n + 1)]
        total = sum(weights)
        cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample(self) -> int:
        """One draw in ``[1, n]``; rank 1 is the most popular."""
        u = self._rng.random()
        return bisect.bisect_left(self._cdf, u) + 1


class GaussianFloats:
    """Normal floats with optional clamping."""

    def __init__(
        self,
        mean: float = 0.0,
        stddev: float = 1.0,
        low: float | None = None,
        high: float | None = None,
        seed: int = 0,
    ) -> None:
        if stddev <= 0:
            raise WorkloadError(f"stddev must be positive, got {stddev}")
        if low is not None and high is not None and low > high:
            raise WorkloadError(f"bad clamp range [{low}, {high}]")
        self.mean = mean
        self.stddev = stddev
        self.low = low
        self.high = high
        self._rng = random.Random(seed)

    def sample(self) -> float:
        """One draw, clamped if bounds were given."""
        value = self._rng.gauss(self.mean, self.stddev)
        if self.low is not None:
            value = max(value, self.low)
        if self.high is not None:
            value = min(value, self.high)
        return value


class Categorical:
    """Weighted choice over a fixed set of categories."""

    def __init__(self, items: Sequence[T], weights: Sequence[float] | None = None, seed: int = 0) -> None:
        if not items:
            raise WorkloadError("need at least one category")
        if weights is not None:
            if len(weights) != len(items):
                raise WorkloadError(
                    f"{len(weights)} weights for {len(items)} items"
                )
            if any(w < 0 for w in weights) or not math.isfinite(sum(weights)) or sum(weights) <= 0:
                raise WorkloadError(f"bad weights {list(weights)}")
        self.items = list(items)
        self.weights = list(weights) if weights is not None else None
        self._rng = random.Random(seed)

    def sample(self) -> T:
        """One draw."""
        if self.weights is None:
            return self._rng.choice(self.items)
        return self._rng.choices(self.items, weights=self.weights, k=1)[0]
