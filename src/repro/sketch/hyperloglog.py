"""HyperLogLog distinct counting (Flajolet et al. 2007).

``2^p`` registers of leading-zero ranks; standard bias correction and
linear-counting fallback for the small range.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Iterable

import numpy

from repro.errors import SketchError
from repro.sketch.countmin import _U64, _stable_hash, stable_hashes


class HyperLogLog:
    """Approximate distinct counter with ~1.04/sqrt(2^p) relative error."""

    def __init__(self, precision: int = 12) -> None:
        if not (4 <= precision <= 18):
            raise SketchError(f"precision must be in [4, 18], got {precision}")
        self.precision = precision
        self.m = 1 << precision
        self._registers = bytearray(self.m)

    @property
    def relative_error(self) -> float:
        """The theoretical standard error of this configuration."""
        return 1.04 / math.sqrt(self.m)

    def add(self, value: Hashable) -> None:
        """Observe one value."""
        h = _stable_hash(value)
        idx = h & (self.m - 1)
        rest = h >> self.precision
        # rank = position of the first 1-bit in the remaining 64-p bits
        rank = (64 - self.precision) - rest.bit_length() + 1 if rest else (64 - self.precision) + 1
        if rank > self._registers[idx]:
            self._registers[idx] = rank

    def add_all(self, values: Iterable[Hashable]) -> None:
        """Observe every value of ``values``."""
        self.add_hashes(stable_hashes(values))

    def add_hashes(self, hashes: Any) -> None:
        """Observe one value per :func:`stable_hashes` entry.

        Register-wise max is commutative, so ``maximum.at`` over the
        batch leaves exactly the registers a loop of :meth:`add` leaves.
        """
        idx = (hashes & _U64(self.m - 1)).astype(numpy.intp)
        rank = (64 - self.precision + 1) - _bit_lengths(hashes >> _U64(self.precision))
        registers = numpy.frombuffer(self._registers, dtype=numpy.uint8)
        numpy.maximum.at(registers, idx, rank.astype(numpy.uint8))

    def estimate(self) -> float:
        """Estimated number of distinct values observed."""
        m = self.m
        inv_sum = 0.0
        zeros = 0
        for reg in self._registers:
            inv_sum += 2.0 ** -reg
            if reg == 0:
                zeros += 1
        alpha = _alpha(m)
        raw = alpha * m * m / inv_sum
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting
        return raw

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        """Register-wise max of two equal-precision sketches."""
        if self.precision != other.precision:
            raise SketchError("can only merge equal-precision HyperLogLogs")
        merged = HyperLogLog(self.precision)
        merged._registers = bytearray(
            numpy.maximum(
                numpy.frombuffer(self._registers, dtype=numpy.uint8),
                numpy.frombuffer(other._registers, dtype=numpy.uint8),
            )
        )
        return merged

    def memory_cells(self) -> int:
        """Number of registers held."""
        return self.m


def _bit_lengths(x: Any) -> Any:
    """``int.bit_length`` of every element of a ``uint64`` array.

    Shift binary search on integers: the operands run to 60 bits, past
    the range where ``log2`` on float64 is exact.
    """
    length = numpy.zeros(len(x), dtype=numpy.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = x >> _U64(shift)
        wide = high != 0
        x = numpy.where(wide, high, x)
        length += numpy.where(wide, shift, 0)
    return length + (x != 0)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)
