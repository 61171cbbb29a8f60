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


class StreamingHistogram:
    """Bounded-space histogram over a numeric stream."""

    def __init__(self, max_bins: int = 64) -> None:
        if max_bins < 2:
            raise SketchError(f"need at least 2 bins, got {max_bins}")
        self.max_bins = max_bins
        self._bins: list[list[float]] = []  # [centroid, count], sorted by centroid
        self.total = 0
        self.non_finite = 0
        self.min_value: float | None = None
        self.max_value: float | None = None

    def __len__(self) -> int:
        return len(self._bins)

    def add(self, value: float) -> None:
        """Insert one numeric value."""
        self.add_all((value,))

    def add_all(self, values: Iterable[float]) -> None:
        """Insert every value of ``values``, in order.

        Ben-Haim/Tom-Tov merging depends on arrival order, so this is
        sequential; the centroid list is built once per call and kept
        in step with the bins rather than rebuilt per value.
        """
        bins = self._bins
        centroids = [b[0] for b in bins]
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SketchError(f"histogram takes numbers, got {value!r}")
            value = float(value)
            if not isfinite(value):
                self.non_finite += 1
                continue
            self.total += 1
            self.min_value = value if self.min_value is None else min(self.min_value, value)
            self.max_value = value if self.max_value is None else max(self.max_value, value)
            idx = bisect.bisect_left(centroids, value)
            if idx < len(bins) and centroids[idx] == value:
                bins[idx][1] += 1
                continue
            bins.insert(idx, [value, 1])
            centroids.insert(idx, value)
            if len(bins) > self.max_bins:
                self._merge_closest(centroids)

    def _merge_closest(self, centroids: list[float]) -> None:
        """Merge the closest pair of bins (``centroids`` mirrors them)."""
        gaps = list(map(operator.sub, centroids[1:], centroids))
        gap = min(gaps)
        if not gap < inf:
            # min() cannot see past a NaN in front, and an infinite gap
            # never wins: pick the first smallest among the rest
            gap = min(g for g in gaps if g < inf)
        best = gaps.index(gap)
        (c1, n1), (c2, n2) = self._bins[best], self._bins[best + 1]
        merged_count = n1 + n2
        merged_centroid = (c1 * n1 + c2 * n2) / merged_count
        self._bins[best: best + 2] = [[merged_centroid, merged_count]]
        centroids[best: best + 2] = [merged_centroid]

    def bins(self) -> list[tuple[float, int]]:
        """The (centroid, count) pairs, ascending by centroid."""
        return [(c, int(n)) for c, n in self._bins]

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 ≤ q ≤ 1) of the inserted values."""
        if not (0.0 <= q <= 1.0):
            raise SketchError(f"quantile must be in [0,1], got {q}")
        if not self._bins:
            raise SketchError("quantile of an empty histogram")
        if q == 0.0:
            return self.min_value  # type: ignore[return-value]
        if q == 1.0:
            return self.max_value  # type: ignore[return-value]
        target = q * self.total
        running = 0.0
        for i, (c, n) in enumerate(self._bins):
            if running + n >= target:
                if i > 0:
                    prev_c = self._bins[i - 1][0]
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
        return sum(c * n for c, n in self._bins) / self.total

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Combine two histograms into one with this histogram's budget."""
        merged = StreamingHistogram(self.max_bins)
        merged.total = self.total + other.total
        merged.non_finite = self.non_finite + other.non_finite
        mins = [v for v in (self.min_value, other.min_value) if v is not None]
        maxs = [v for v in (self.max_value, other.max_value) if v is not None]
        merged.min_value = min(mins) if mins else None
        merged.max_value = max(maxs) if maxs else None
        merged._bins = sorted(
            ([c, n] for c, n in self._bins + other._bins), key=lambda b: b[0]
        )
        # collapse duplicate centroids, then shrink to budget
        collapsed: list[list[float]] = []
        for c, n in merged._bins:
            if collapsed and collapsed[-1][0] == c:
                collapsed[-1][1] += n
            else:
                collapsed.append([c, n])
        merged._bins = collapsed
        centroids = [b[0] for b in collapsed]
        while len(collapsed) > merged.max_bins:
            merged._merge_closest(centroids)
        return merged

    def memory_cells(self) -> int:
        """Number of (centroid, count) pairs held."""
        return len(self._bins)
