"""Count-min sketch for approximate frequencies.

Standard Cormode–Muthukrishnan construction: ``depth`` rows of
``width`` counters with pairwise-independent hash rows; point queries
return the minimum over rows, overestimating by at most
``ε·N = (e/width)·N`` with probability ``1 − (1/e)^depth``.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Iterable

import numpy

from repro.errors import SketchError

_MERSENNE_PRIME = (1 << 61) - 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK_64 = 0xFFFFFFFFFFFFFFFF

#: :func:`stable_hashes` runs FNV-1a one byte *position* at a time over
#: the whole batch; bytes past this position are folded in per value, so
#: one long string costs its own length rather than padding every row
_VECTOR_BYTES = 64

_U64 = numpy.uint64


def _hash_bytes(value: Hashable) -> bytes:
    if isinstance(value, bool):
        value = ("bool", value)
    return repr(value).encode("utf-8")


def _fnv1a(data: bytes, h: int = _FNV_OFFSET) -> int:
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK_64
    return h


def _stable_hash(value: Hashable) -> int:
    """Deterministic 64-bit hash (Python's ``hash`` is salted per process).

    FNV-1a over the repr, then a splitmix64-style avalanche so that
    similar short strings ("/page/1", "/page/2", ...) still spread
    uniformly across low bits — HyperLogLog indexes on those.
    """
    h = _fnv1a(_hash_bytes(value))
    # splitmix64 finalizer
    h = (h ^ (h >> 30)) * _MIX_1 & _MASK_64
    h = (h ^ (h >> 27)) * _MIX_2 & _MASK_64
    return h ^ (h >> 31)


def stable_hashes(values: Iterable[Hashable]) -> Any:
    """:func:`_stable_hash` of every value, as one ``uint64`` array.

    The batch form the three hash-based sketches share: a summary hashes
    each cell once and hands the same array to HyperLogLog, count-min
    and Bloom. ``uint64`` array arithmetic wraps mod 2^64, which is the
    scalar code's ``& 0xFFFF_FFFF_FFFF_FFFF``.
    """
    encoded = [_hash_bytes(value) for value in values]
    count = len(encoded)
    lengths = numpy.fromiter(map(len, encoded), dtype=numpy.int64, count=count)
    width = min(int(lengths.max(initial=0)), _VECTOR_BYTES)
    padded = numpy.frombuffer(
        b"".join([data[:width].ljust(width, b"\0") for data in encoded]),
        dtype=numpy.uint8,
    ).reshape(count, width)
    h = numpy.full(count, _FNV_OFFSET, dtype=_U64)
    prime = _U64(_FNV_PRIME)
    for position in range(width):
        step = (h ^ padded[:, position]) * prime
        h = numpy.where(lengths > position, step, h)
    for i in numpy.flatnonzero(lengths > width).tolist():
        h[i] = _fnv1a(encoded[i][width:], int(h[i]))
    h = (h ^ (h >> _U64(30))) * _U64(_MIX_1)
    h = (h ^ (h >> _U64(27))) * _U64(_MIX_2)
    return h ^ (h >> _U64(31))


def _mod_mersenne(x: Any) -> Any:
    """``x mod (2^61 - 1)`` for a ``uint64`` array (``2^61 ≡ 1``)."""
    p = _U64(_MERSENNE_PRIME)
    x = (x & p) + (x >> _U64(61))
    return numpy.where(x >= p, x - p, x)


def _mulmod_mersenne(a: int, x: Any, b: int) -> Any:
    """``(a·x + b) mod (2^61 - 1)`` for ``a, b, x < 2^61 - 1``, ``x`` an array.

    The product has up to 122 bits; 31-bit limbs keep every partial
    product below 2^62, and ``2^61 ≡ 1`` folds the high limbs back, so
    the running sum stays below 2^64 and nothing wraps.
    """
    low, bits = (1 << 31) - 1, _U64(31)
    a0, a1 = _U64(a & low), _U64(a >> 31)
    x0, x1 = x & _U64(low), x >> bits
    mid = a1 * x0 + a0 * x1  # weight 2^31
    total = (
        ((a1 * x1) << _U64(1))  # weight 2^62 ≡ 2
        + (mid >> _U64(30))  # mid's bits 30.. carry weight 2^61 ≡ 1
        + ((mid & _U64((1 << 30) - 1)) << bits)
        + a0 * x0
        + _U64(b)
    )
    return _mod_mersenne(total)


class CountMinSketch:
    """Approximate frequency table in ``depth × width`` counters."""

    def __init__(self, width: int = 256, depth: int = 4, seed: int = 7) -> None:
        if width <= 0 or depth <= 0:
            raise SketchError(f"width/depth must be positive, got {width}x{depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = 0
        self._rows: list[list[int]] = [[0] * width for _ in range(depth)]
        # pairwise-independent hash parameters (a*x + b mod p mod width)
        self._params = [
            ((seed * 2654435761 + i * 40503 + 1) % _MERSENNE_PRIME or 1,
             (seed * 97 + i * 1000003) % _MERSENNE_PRIME)
            for i in range(depth)
        ]

    @classmethod
    def from_error(cls, epsilon: float, delta: float, seed: int = 7) -> "CountMinSketch":
        """Size a sketch so error ≤ ``epsilon·N`` with prob ≥ 1−``delta``."""
        if not (0 < epsilon < 1) or not (0 < delta < 1):
            raise SketchError(f"need 0<epsilon<1 and 0<delta<1, got {epsilon}, {delta}")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=depth, seed=seed)

    def _positions(self, value: Hashable) -> list[int]:
        x = _stable_hash(value)
        return [((a * x + b) % _MERSENNE_PRIME) % self.width for a, b in self._params]

    def add(self, value: Hashable, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        if count < 0:
            raise SketchError(f"negative count {count}")
        self.total += count
        for row, pos in zip(self._rows, self._positions(value)):
            row[pos] += count

    def add_all(self, values: Iterable[Hashable]) -> None:
        """Record one occurrence of every value of ``values``."""
        self.add_hashes(stable_hashes(values))

    def add_hashes(self, hashes: Any) -> None:
        """Record one occurrence per :func:`stable_hashes` entry.

        Leaves exactly the counters a loop of :meth:`add` leaves: the
        same positions, counted with ``bincount`` per depth row.
        """
        self.total += len(hashes)
        x = _mod_mersenne(hashes)
        for row, (a, b) in zip(self._rows, self._params):
            counts = numpy.bincount(
                (_mulmod_mersenne(a, x, b) % _U64(self.width)).astype(numpy.intp),
                minlength=self.width,
            )
            hit = numpy.flatnonzero(counts)
            for pos, count in zip(hit.tolist(), counts[hit].tolist()):
                row[pos] += count

    def estimate(self, value: Hashable) -> int:
        """Estimated frequency of ``value`` (never underestimates)."""
        return min(row[pos] for row, pos in zip(self._rows, self._positions(value)))

    def error_bound(self) -> float:
        """The ε·N additive error guarantee for the current total."""
        return (math.e / self.width) * self.total

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Cell-wise sum of two identically-parameterised sketches."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise SketchError("can only merge identically-parameterised count-min sketches")
        merged = CountMinSketch(self.width, self.depth, self.seed)
        merged.total = self.total + other.total
        merged._rows = [
            [a + b for a, b in zip(row_a, row_b)]
            for row_a, row_b in zip(self._rows, other._rows)
        ]
        return merged

    def memory_cells(self) -> int:
        """Number of counters held (space metric for experiment T2)."""
        return self.width * self.depth
