"""Reservoir sampling (Vitter's algorithm R).

Keeps a uniform random sample of bounded size over a stream of
unknown length — the simplest honest "summary" of a rotting region.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator

from repro.errors import SketchError


def derived_seed(*counts: int) -> int:
    """A 32-bit seed from ``counts``, for a sample rebuilt from others.

    A restored or merged sample seeds its RNG from its counts, so
    rebuilding it again (a second merge of the same parents, or one
    after a checkpoint round trip) makes the same draws.
    """
    seed = 0
    for count in counts:
        seed = (seed * 2654435761 + count) & 0xFFFFFFFF
    return seed


class ReservoirSample:
    """Uniform fixed-size sample over a stream.

    Deterministic under a caller-provided seed, which the experiment
    harness always sets.
    """

    def __init__(self, capacity: int, seed: int | None = None) -> None:
        if capacity <= 0:
            raise SketchError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._items: list[Any] = []
        self._seen = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    @property
    def seen(self) -> int:
        """Total number of values offered to the sample."""
        return self._seen

    def add(self, value: Any) -> None:
        """Offer one value; it enters the sample with probability k/n."""
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(value)
            return
        j = self._rng.randrange(self._seen)
        if j < self.capacity:
            self._items[j] = value

    def add_all(self, values: Iterable[Any]) -> None:
        """Offer every value of ``values``, in order.

        One loop on local variables that makes the RNG draws a loop of
        :meth:`add` makes: none while the sample fills, then one
        ``randrange(seen)`` per value, inlined as the rejection loop on
        ``getrandbits`` that ``random.Random`` runs for it (the property
        tests hold the two RNG states equal).
        """
        values = list(values)
        items, capacity = self._items, self.capacity
        fill = values[: max(capacity - len(items), 0)]
        items.extend(fill)
        seen = self._seen + len(fill)
        getrandbits = self._rng.getrandbits
        for value in values[len(fill):]:
            seen += 1
            bits = seen.bit_length()
            j = getrandbits(bits)
            while j >= seen:
                j = getrandbits(bits)
            if j < capacity:
                items[j] = value
        self._seen = seen

    def values(self) -> list[Any]:
        """A copy of the current sample contents."""
        return list(self._items)

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Merge two samples into a new one of this sample's capacity.

        Implemented by weighted subsampling: each parent contributes
        proportionally to how many stream items it has seen, which keeps
        the merged sample approximately uniform over the union stream.
        """
        merged = ReservoirSample(
            self.capacity,
            seed=derived_seed(self._seen, self.capacity, other._seen, other.capacity),
        )
        total = self._seen + other._seen
        merged._seen = total
        if total == 0:
            return merged
        pool: list[Any] = []
        for parent in (self, other):
            if not parent._items:
                continue
            weight = parent._seen / total
            want = round(weight * min(self.capacity, len(self._items) + len(other._items)))
            items = list(parent._items)
            merged._rng.shuffle(items)
            pool.extend(items[: max(want, 0)])
        merged._rng.shuffle(pool)
        merged._items = pool[: self.capacity]
        return merged

    def estimate_mean(self) -> float | None:
        """Mean of the sampled values (numeric streams only)."""
        numeric = [v for v in self._items if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if not numeric:
            return None
        return sum(numeric) / len(numeric)
