"""Count-min sketch for approximate frequencies.

Standard Cormode–Muthukrishnan construction: ``depth`` rows of
``width`` counters with pairwise-independent hash rows; point queries
return the minimum over rows, overestimating by at most
``ε·N = (e/width)·N`` with probability ``1 − (1/e)^depth``.
"""

from __future__ import annotations

import math
import struct
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

#: equal values of these types have equal reprs, once a float is told
#: apart by its bits: :func:`_distinct` may hash them once per batch
_KEYED_KINDS = frozenset((bool, int, float, str))
_F64_BITS = struct.Struct("<d")


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


def _distinct(values: list) -> tuple[list, Any]:
    """The distinct values of ``values`` and each value's index among them.

    Two values share an entry only when their reprs are equal: a float
    is keyed by its ``uint64`` bit pattern (``0.0 == -0.0``, yet their
    reprs differ), a bool, int or str by ``(type(v), v)`` (``True ==
    1``). A batch holding any other type is returned whole, with index
    None: its values' equality need not follow their reprs.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        bits = numpy.array(values, dtype=numpy.float64).view(_U64)
        unique, inverse = numpy.unique(bits, return_inverse=True)
        return unique.view(numpy.float64).tolist(), inverse
    if not kinds <= _KEYED_KINDS:
        return values, None
    if len(kinds) < 2:
        keys = values
    else:
        bits = map(_F64_BITS.pack, [v if type(v) is float else 0.0 for v in values])
        keys = list(zip(map(type, values), values, bits))
    first = dict(zip(keys, values))
    index = dict(zip(first, range(len(first))))
    inverse = numpy.fromiter(map(index.__getitem__, keys), dtype=numpy.intp, count=len(keys))
    return list(first.values()), inverse


def stable_hashes(values: Iterable[Hashable]) -> Any:
    """:func:`_stable_hash` of every value, as one ``uint64`` array.

    The batch form the three hash-based sketches share: a summary hashes
    each distinct value of a column once (:func:`_distinct`) and hands
    the broadcast array to HyperLogLog, count-min and Bloom. ``uint64``
    array arithmetic wraps mod 2^64, which is the scalar code's
    ``& 0xFFFF_FFFF_FFFF_FFFF``.
    """
    distinct, inverse = _distinct(list(values))
    h = _fnv1a_splitmix(distinct)
    return h if inverse is None else h[inverse]


def _fnv1a_splitmix(values: list) -> Any:
    """:func:`_stable_hash` of every value, FNV-1a one byte position at a time."""
    count = len(values)
    if not count:
        return numpy.zeros(0, dtype=_U64)
    if bool in set(map(type, values)):
        encoded = [_hash_bytes(value) for value in values]
    else:
        encoded = list(map(str.encode, map(repr, values)))
    lengths = numpy.fromiter(map(len, encoded), dtype=numpy.int64, count=count)
    width = min(int(lengths.max()), _VECTOR_BYTES)
    # longest first, so the values still running at each byte position
    # are a prefix of the rows: one in-place xor and multiply per position
    order = numpy.argsort(-lengths, kind="stable")
    columns = numpy.array(encoded, dtype=f"S{width}")[order].view(numpy.uint8)
    columns = columns.reshape(count, width).T.copy()
    running = count - numpy.cumsum(numpy.bincount(numpy.minimum(lengths, width)))
    prime = _U64(_FNV_PRIME)
    sorted_h = numpy.full(count, _FNV_OFFSET, dtype=_U64)
    for column, active in zip(columns, running.tolist()):
        prefix = sorted_h[:active]
        prefix ^= column[:active]
        prefix *= prime
    h = numpy.empty_like(sorted_h)
    h[order] = sorted_h
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


def _mulmod_mersenne(a: Any, x: Any, b: Any) -> Any:
    """``(a·x + b) mod (2^61 - 1)`` for ``a, b, x < 2^61 - 1``, ``x`` an array.

    ``a`` and ``b`` are ints, or ``uint64`` arrays that broadcast
    against ``x`` (one row per count-min depth row).

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
    """Approximate frequency table in ``depth × width`` counters.

    The counters are one ``int64`` array, a row per depth; ``serde``
    writes them as plain int lists.
    """

    def __init__(self, width: int = 256, depth: int = 4, seed: int = 7) -> None:
        if width <= 0 or depth <= 0:
            raise SketchError(f"width/depth must be positive, got {width}x{depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.total = 0
        self._rows = numpy.zeros((depth, width), dtype=numpy.int64)
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
        for row, pos in enumerate(self._positions(value)):
            self._rows[row, pos] += count

    def add_all(self, values: Iterable[Hashable]) -> None:
        """Record one occurrence of every value of ``values``."""
        self.add_hashes(stable_hashes(values))

    def add_hashes(self, hashes: Any) -> None:
        """Record one occurrence per :func:`stable_hashes` entry.

        Leaves exactly the counters a loop of :meth:`add` leaves: the
        same positions for every depth row in one ``depth × n`` pass,
        counted with one ``bincount`` over the flattened counters.
        """
        self.total += len(hashes)
        a, b = numpy.array(self._params, dtype=_U64).T[:, :, None]
        positions = _mulmod_mersenne(a, _mod_mersenne(hashes), b) % _U64(self.width)
        cells = positions.astype(numpy.intp) + numpy.arange(self.depth)[:, None] * self.width
        counts = numpy.bincount(cells.ravel(), minlength=self._rows.size)
        self._rows += counts.reshape(self._rows.shape)

    def estimate(self, value: Hashable) -> int:
        """Estimated frequency of ``value`` (never underestimates)."""
        return int(self._rows[range(self.depth), self._positions(value)].min())

    def error_bound(self) -> float:
        """The ε·N additive error guarantee for the current total."""
        return (math.e / self.width) * self.total

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Cell-wise sum of two identically-parameterised sketches."""
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise SketchError("can only merge identically-parameterised count-min sketches")
        merged = CountMinSketch(self.width, self.depth, self.seed)
        merged.total = self.total + other.total
        merged._rows = self._rows + other._rows
        return merged

    def memory_cells(self) -> int:
        """Number of counters held (space metric for experiment T2)."""
        return self.width * self.depth
