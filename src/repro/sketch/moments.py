"""Running moments.

:class:`RunningMoments` keeps count/mean/variance/min/max via Welford's
online algorithm (numerically stable, mergeable with the Chan et al.
parallel formula).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import SketchError


def check_numbers(values: Sequence[float], sketch: str) -> None:
    """Raise SketchError naming the first value of ``values`` that is not a number.

    A number is an int or float instance (subclasses included) that is
    not a bool. The whole batch is checked before a sketch folds any of
    it, so a bad batch changes nothing.
    """
    if set(map(type, values)) <= {int, float}:
        return
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SketchError(f"{sketch} takes numbers, got {value!r}")


class RunningMoments:
    """Count, mean, variance, min, max in O(1) space."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def add(self, value: float) -> None:
        """Observe one numeric value."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SketchError(f"RunningMoments takes numbers, got {value!r}")
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.min_value = value if self.min_value is None else min(self.min_value, value)
        self.max_value = value if self.max_value is None else max(self.max_value, value)

    def add_all(self, values: Iterable[float]) -> None:
        """Observe every value of ``values``, in order.

        Welford's update depends on arrival order, so this is one
        sequential loop on local variables; min and max are taken once
        per batch, with the same first-wins ties and NaN handling as a
        per-value ``min``/``max``. A batch holding a non-number raises
        before any value is observed.
        """
        values = list(values)
        check_numbers(values, "RunningMoments")
        floats = list(map(float, values))
        if not floats:
            return
        count, mean, m2 = self.count, self.mean, self._m2
        for value in floats:
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        self.count, self.mean, self._m2 = count, mean, m2
        lo, hi = self.min_value, self.max_value
        self.min_value = min(floats if lo is None else (lo, *floats))
        self.max_value = max(floats if hi is None else (hi, *floats))

    @property
    def variance(self) -> float | None:
        """Sample variance (None below 2 observations)."""
        if self.count < 2:
            return None
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float | None:
        """Sample standard deviation (None below 2 observations)."""
        var = self.variance
        return math.sqrt(var) if var is not None else None

    @property
    def total(self) -> float:
        """Sum of observed values."""
        return self.mean * self.count

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Combine two moment sets (Chan et al. pairwise update)."""
        merged = RunningMoments()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        mins = [v for v in (self.min_value, other.min_value) if v is not None]
        maxs = [v for v in (self.max_value, other.max_value) if v is not None]
        merged.min_value = min(mins) if mins else None
        merged.max_value = max(maxs) if maxs else None
        return merged

