"""Bloom filter for approximate set membership.

After a region rots away, its Bloom filter can still answer "was this
key ever in the discarded range?" with no false negatives — the
cheapest "inspect them once before removal" container.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Iterable

import numpy

from repro.errors import SketchError
from repro.sketch.countmin import _U64, _stable_hash, stable_hashes


class BloomFilter:
    """Fixed-size bit array with k double-hashed probe positions."""

    def __init__(self, num_bits: int = 8192, num_hashes: int = 5) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise SketchError(f"bad bloom parameters: {num_bits} bits, {num_hashes} hashes")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self.count = 0

    @classmethod
    def from_capacity(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Size the filter for ``capacity`` items at ``fp_rate`` false positives."""
        if capacity <= 0 or not (0 < fp_rate < 1):
            raise SketchError(f"bad capacity {capacity} or fp_rate {fp_rate}")
        num_bits = math.ceil(-capacity * math.log(fp_rate) / (math.log(2) ** 2))
        num_hashes = max(1, round((num_bits / capacity) * math.log(2)))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    def _positions(self, value: Hashable) -> Iterable[int]:
        h = _stable_hash(value)
        h1 = h & 0xFFFFFFFF
        h2 = (h >> 32) | 1  # odd, so strides cover the table
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, value: Hashable) -> None:
        """Insert one value."""
        for pos in self._positions(value):
            self._bits[pos >> 3] |= 1 << (pos & 7)
        self.count += 1

    def add_all(self, values: Iterable[Hashable]) -> None:
        """Insert every value of ``values``."""
        self.add_hashes(stable_hashes(values))

    def add_hashes(self, hashes: Any) -> None:
        """Insert one value per :func:`stable_hashes` entry.

        The same double-hashed probes as :meth:`add`
        (``h1 + i·h2 < 2^32 + k·2^32`` fits ``uint64``), OR-ed into the
        bit array in one pass.
        """
        h1 = hashes & _U64(0xFFFFFFFF)
        h2 = (hashes >> _U64(32)) | _U64(1)
        probes = numpy.arange(self.num_hashes, dtype=_U64)[:, None]
        pos = ((h1 + probes * h2) % _U64(self.num_bits)).ravel()
        bits = numpy.frombuffer(self._bits, dtype=numpy.uint8)
        numpy.bitwise_or.at(
            bits,
            (pos >> _U64(3)).astype(numpy.intp),
            (_U64(1) << (pos & _U64(7))).astype(numpy.uint8),
        )
        self.count += len(hashes)

    def __contains__(self, value: Hashable) -> bool:
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(value))

    def false_positive_rate(self) -> float:
        """Expected FP rate given the number of inserted items."""
        k, m, n = self.num_hashes, self.num_bits, self.count
        if n == 0:
            return 0.0
        return (1 - math.exp(-k * n / m)) ** k

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        """Bitwise OR of two identically-sized filters."""
        if (self.num_bits, self.num_hashes) != (other.num_bits, other.num_hashes):
            raise SketchError("can only merge identically-parameterised bloom filters")
        merged = BloomFilter(self.num_bits, self.num_hashes)
        merged._bits = bytearray(
            numpy.frombuffer(self._bits, dtype=numpy.uint8)
            | numpy.frombuffer(other._bits, dtype=numpy.uint8)
        )
        merged.count = self.count + other.count
        return merged

    def memory_cells(self) -> int:
        """Number of bits held."""
        return self.num_bits
