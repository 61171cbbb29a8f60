"""numpy-backed column primitives for the decay kernels.

Every storage :class:`~repro.storage.table.Table` keeps its live mask
in a :class:`BoolColumn` and its freshness column (plus any other
requested float/timestamp column — ``t`` on a decaying table) in a
growable ``float64`` :class:`FloatColumn`; the remaining columns are
plain Python lists. Both classes expose just enough of the list
protocol (``extend``/``__getitem__``/``__len__``/``__iter__``) that
per-cell code reads them like lists, while the batch kernels reach the
raw array through ``array()``. There is one writer: a stored cell
changes only through ``Table.write_rows`` (values) or the table's
liveness flips (the mask), never through a column's own interface.

numpy is a hard dependency (``pyproject.toml``).

Float semantics: elementwise ``float64`` arithmetic is bit-identical
to Python ``float`` arithmetic (both are IEEE-754 doubles), which is
what lets the vector kernel and the scalar small-batch kernel in
``core/table.py`` agree bit for bit. Scalar reads convert back through
``float()`` so values that escape into events, snapshots and query
results are plain Python floats.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy

#: initial capacity of a freshly created vector column
_INITIAL_CAPACITY = 16


def _with_capacity(data: Any, size: int, needed: int) -> Any:
    """``data``, or a copy of its first ``size`` cells in an array grown
    geometrically (once, however large the batch) to hold ``needed``."""
    capacity = len(data)
    if needed <= capacity:
        return data
    while capacity < needed:
        capacity *= 2
    grown = numpy.zeros(capacity, dtype=data.dtype)
    grown[:size] = data[:size]
    return grown


class FloatColumn:
    """Growable ``float64`` column with list-like scalar access."""

    __slots__ = ("_data", "_size")

    def __init__(self, values: Iterable[float] = ()) -> None:
        seed = numpy.asarray(list(values), dtype=numpy.float64)
        capacity = max(_INITIAL_CAPACITY, len(seed))
        self._data = numpy.zeros(capacity, dtype=numpy.float64)
        self._data[: len(seed)] = seed
        self._size = len(seed)

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"column index {index} out of range [0, {self._size})")

    def __getitem__(self, index: int) -> float:
        self._check(index)
        return float(self._data[index])

    def __iter__(self) -> Iterator[float]:
        return iter(self._data[: self._size].tolist())

    def extend(self, values: Sequence[float]) -> None:
        """Append ``values`` in one slice assignment."""
        stop = self._size + len(values)
        self._data = _with_capacity(self._data, self._size, stop)
        self._data[self._size : stop] = values
        self._size = stop

    def array(self) -> Any:
        """The live ``float64`` view (length == rows ever appended).

        Read only outside ``Table``: cells are written through
        ``Table.write_rows``.
        """
        return self._data[: self._size]

    def take(self, indices: Iterable[int]) -> "FloatColumn":
        """A new column holding ``self[i]`` for each index (dense copies)."""
        picked = self._data[: self._size][
            numpy.asarray(list(indices), dtype=numpy.intp)
        ]
        return FloatColumn(picked)


class BoolColumn:
    """Growable boolean column; backs every table's live mask."""

    __slots__ = ("_data", "_size")

    def __init__(self, size: int = 0, fill: bool = True) -> None:
        capacity = max(_INITIAL_CAPACITY, size)
        self._data = numpy.zeros(capacity, dtype=numpy.bool_)
        if size:
            self._data[:size] = fill
        self._size = size

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> None:
        if not 0 <= index < self._size:
            raise IndexError(f"mask index {index} out of range [0, {self._size})")

    def __getitem__(self, index: int) -> bool:
        self._check(index)
        return bool(self._data[index])

    def __iter__(self) -> Iterator[bool]:
        return iter(self._data[: self._size].tolist())

    def extend(self, values: Sequence[bool]) -> None:
        """Append ``values`` in one slice assignment."""
        stop = self._size + len(values)
        self._data = _with_capacity(self._data, self._size, stop)
        self._data[self._size : stop] = values
        self._size = stop

    def array(self) -> Any:
        """The live boolean view (shared, do not mutate outside Table)."""
        return self._data[: self._size]
