"""Row-id selections.

A :class:`RowSet` is an immutable, sorted selection of physical row ids
used to pass "which rows" between the storage layer, the query
operators, and the decay core (e.g. "the rows query Q consumed",
"the rows fungus F evicted this tick").
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import StorageError


class RowSet:
    """An immutable sorted set of row ids with set algebra.

    Row ids are non-negative ints assigned by :class:`~repro.storage.table.Table`
    in insertion order; sortedness therefore means "insertion/time
    order", which is the axis EGI rot spots grow along.
    """

    __slots__ = ("_rows", "_set")

    def __init__(self, rows: Iterable[int] = ()) -> None:
        unique = set()
        for rid in rows:
            if not isinstance(rid, int) or isinstance(rid, bool) or rid < 0:
                raise StorageError(f"invalid row id {rid!r}")
            unique.add(rid)
        self._rows: tuple[int, ...] = tuple(sorted(unique))
        self._set: frozenset[int] = frozenset(unique)

    @classmethod
    def from_sorted(cls, rows: tuple[int, ...]) -> "RowSet":
        """Unchecked fast path: ``rows`` must already be sorted & unique
        row ids (the tuple is kept, not copied)."""
        rs = cls.__new__(cls)
        rs._rows = rows
        rs._set = frozenset(rows)
        return rs

    @classmethod
    def empty(cls) -> "RowSet":
        """The empty selection."""
        return _EMPTY

    @classmethod
    def span(cls, start: int, stop: int) -> "RowSet":
        """All row ids in ``range(start, stop)`` — a contiguous span."""
        if start < 0 or stop < start:
            raise StorageError(f"invalid span [{start}, {stop})")
        return cls.from_sorted(tuple(range(start, stop)))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __contains__(self, rid: object) -> bool:
        return rid in self._set

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowSet):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        if len(self._rows) <= 8:
            return f"RowSet({list(self._rows)})"
        head = ", ".join(map(str, self._rows[:4]))
        return f"RowSet([{head}, ... {len(self._rows)} rows ... {self._rows[-1]}])"

    @property
    def rows(self) -> tuple[int, ...]:
        """The row ids, sorted ascending."""
        return self._rows

    def union(self, other: "RowSet") -> "RowSet":
        """Rows in either selection."""
        return RowSet.from_sorted(tuple(sorted(self._set | other._set)))

    def intersection(self, other: "RowSet") -> "RowSet":
        """Rows in both selections."""
        return RowSet.from_sorted(tuple(sorted(self._set & other._set)))

    def difference(self, other: "RowSet") -> "RowSet":
        """Rows in this selection but not in ``other``."""
        return RowSet.from_sorted(tuple(sorted(self._set - other._set)))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def spans(self) -> list[tuple[int, int]]:
        """Decompose into maximal contiguous ``[start, stop)`` spans.

        Rot-spot analysis (experiment F2) uses this to measure how EGI
        groups evictions into insertion ranges.
        """
        out: list[tuple[int, int]] = []
        start = prev = None
        for rid in self._rows:
            if start is None:
                start = prev = rid
            elif rid == prev + 1:
                prev = rid
            else:
                out.append((start, prev + 1))
                start = prev = rid
        if start is not None:
            out.append((start, prev + 1))
        return out


_EMPTY = RowSet()
