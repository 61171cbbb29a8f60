"""Streaming histogram (Ben-Haim & Tom-Tov style centroid merging).

Maintains at most ``max_bins`` (centroid, count) pairs; inserting past
the budget merges the two closest centroids. Supports quantile and
count-below queries and exact merging of two histograms.

NaN and ±inf have no place on the centroid axis (NaN breaks its sort
order, an infinite centroid has no finite gap to merge across), so they
are counted separately in ``non_finite`` and touch nothing else:
``total``, ``min_value``, ``max_value`` and the bins describe the finite
values only.
"""

from __future__ import annotations

import bisect
import operator
from math import inf, isfinite
from typing import Iterable

from repro.errors import SketchError
from repro.sketch.moments import check_numbers


def _merge_closest(centroids: list[float], counts: list[int], gaps: list[float]) -> None:
    """Merge the closest pair of bins, given as centroids, counts and the gaps between."""
    gap = min(gaps)
    if not gap < inf:
        # min() cannot see past a NaN in front, and an infinite gap
        # never wins: pick the first smallest among the rest
        gap = min(g for g in gaps if g < inf)
    best = gaps.index(gap)
    n1, n2 = counts[best], counts[best + 1]
    count = n1 + n2
    centroid = (centroids[best] * n1 + centroids[best + 1] * n2) / count
    centroids[best] = centroid
    counts[best] = count
    del centroids[best + 1], counts[best + 1], gaps[best]
    if best:
        gaps[best - 1] = centroid - centroids[best - 1]
    if best < len(gaps):
        gaps[best] = centroids[best + 1] - centroid


class StreamingHistogram:
    """Bounded-space histogram over a numeric stream."""

    def __init__(self, max_bins: int = 64) -> None:
        if max_bins < 2:
            raise SketchError(f"need at least 2 bins, got {max_bins}")
        self.max_bins = max_bins
        # bin i is (centroids[i], counts[i]); centroids ascend
        self._centroids: list[float] = []
        self._counts: list[int] = []
        self.total = 0
        self.non_finite = 0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def __len__(self) -> int:
        return len(self._centroids)

    def add(self, value: float) -> None:
        """Insert one numeric value."""
        self.add_all((value,))

    def add_all(self, values: Iterable[float]) -> None:
        """Insert every value of ``values``, in order.

        Ben-Haim/Tom-Tov merging depends on arrival order, so this is
        one sequential loop on local variables. The gap list is built
        once per call and kept in step with the bins: an insert or a
        merge changes two gaps, never all of them. A batch holding a
        non-number raises before any value is inserted.
        """
        values = list(values)
        check_numbers(values, "histogram")
        finite = [value for value in map(float, values) if isfinite(value)]
        self.non_finite += len(values) - len(finite)
        if not finite:
            return
        self.total += len(finite)
        lo, hi = self.min_value, self.max_value
        self.min_value = min(finite) if lo is None else min(lo, *finite)
        self.max_value = max(finite) if hi is None else max(hi, *finite)
        max_bins, centroids, counts = self.max_bins, self._centroids, self._counts
        gaps = list(map(operator.sub, centroids[1:], centroids))
        for value in finite:
            idx = bisect.bisect_left(centroids, value)
            size = len(centroids)
            if idx < size:
                if centroids[idx] == value:
                    counts[idx] += 1
                    continue
                gaps.insert(idx, centroids[idx] - value)
            if idx:
                if idx < size:
                    gaps[idx - 1] = value - centroids[idx - 1]
                else:
                    gaps.append(value - centroids[idx - 1])
            centroids.insert(idx, value)
            counts.insert(idx, 1)
            if size >= max_bins:
                _merge_closest(centroids, counts, gaps)

    def bins(self) -> list[tuple[float, int]]:
        """The (centroid, count) pairs, ascending by centroid."""
        return [(c, int(n)) for c, n in zip(self._centroids, self._counts)]

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 ≤ q ≤ 1) of the inserted values."""
        if not (0.0 <= q <= 1.0):
            raise SketchError(f"quantile must be in [0,1], got {q}")
        if not self._centroids:
            raise SketchError("quantile of an empty histogram")
        if q == 0.0:
            return self.min_value  # type: ignore[return-value]
        if q == 1.0:
            return self.max_value  # type: ignore[return-value]
        target = q * self.total
        running = 0.0
        for i, (c, n) in enumerate(zip(self._centroids, self._counts)):
            if running + n >= target:
                if i > 0:
                    prev_c = self._centroids[i - 1]
                elif self.min_value is not None:
                    prev_c = self.min_value
                else:
                    prev_c = c
                frac = (target - running) / n
                # lerp as a convex combination, then clamp: the naive
                # prev_c + (c - prev_c) * frac cancels catastrophically
                # when the endpoints differ by hundreds of orders of
                # magnitude and can land outside [prev_c, c]
                value = prev_c * (1.0 - frac) + c * frac
                lo, hi = (prev_c, c) if prev_c <= c else (c, prev_c)
                return min(max(value, lo), hi)
            running += n
        return self.max_value  # type: ignore[return-value]

    def mean(self) -> float | None:
        """Weighted mean of the centroids."""
        if self.total == 0:
            return None
        return sum(map(operator.mul, self._centroids, self._counts)) / self.total

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Combine two histograms into one with this histogram's budget."""
        merged = StreamingHistogram(self.max_bins)
        merged.total = self.total + other.total
        merged.non_finite = self.non_finite + other.non_finite
        mins = [v for v in (self.min_value, other.min_value) if v is not None]
        maxs = [v for v in (self.max_value, other.max_value) if v is not None]
        merged.min_value = min(mins) if mins else None
        merged.max_value = max(maxs) if maxs else None
        pairs = sorted(
            [*zip(self._centroids, self._counts), *zip(other._centroids, other._counts)],
            key=lambda b: b[0],
        )
        # collapse duplicate centroids, then shrink to budget
        centroids, counts = merged._centroids, merged._counts
        for c, n in pairs:
            if centroids and centroids[-1] == c:
                counts[-1] += n
            else:
                centroids.append(c)
                counts.append(n)
        gaps = list(map(operator.sub, centroids[1:], centroids))
        while len(centroids) > merged.max_bins:
            _merge_closest(centroids, counts, gaps)
        return merged

    def memory_cells(self) -> int:
        """Number of (centroid, count) pairs held."""
        return len(self._centroids)
