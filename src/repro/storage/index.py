"""Secondary indexes maintained through table mutations.

Two index kinds cover the query engine's needs:

* :class:`HashIndex` — equality lookups (``WHERE region = 'eu'``).
* :class:`SortedIndex` — range lookups (``WHERE t >= 40``), used for
  the time column so age-correlated fungus seeding and retention
  eviction don't scan the whole table.

Both register themselves as table observers, so appends, tombstone
deletes and compactions keep them consistent without caller effort.
Every call carries a batch (the rids and one value list per column,
shared with every other observer). On append the hash index files the
batch in one pass, and the sorted index sorts it and extends, merging
only the stretch a batch overlaps when it reaches below the current
tail. On delete the hash index unfiles the batch in one loop, and the
sorted index adds it to its dead set in one ``update`` and purges at
most once.
"""

from __future__ import annotations

import bisect
from typing import Any, Hashable, Iterable, Mapping, Sequence

from repro.errors import StorageError
from repro.storage.rowset import RowSet
from repro.storage.table import Table


class HashIndex:
    """Equality index: column value -> set of live row ids.

    NaN keys are not filed: equality never matches NaN, and a NaN read
    back off a float array is a new object no bucket would find.
    """

    def __init__(self, table: Table, column: str) -> None:
        self.table = table
        self.column = column
        self._col_pos = table.schema.index_of(column)
        self._buckets: dict[Hashable, set[int]] = {}
        rids = table.live_list()
        self._file(table.gather(column, rids), rids)
        table.add_observer(self)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def lookup(self, value: Hashable) -> RowSet:
        """Live rows whose indexed column equals ``value``."""
        return RowSet(self._buckets.get(value, ()))

    # -- TableObserver protocol ---------------------------------------

    def on_append(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        self._file(columns[self._col_pos], rids)

    def _file(self, values: Sequence[Any], rids: Sequence[int]) -> None:
        buckets = self._buckets
        for value, rid in zip(values, rids):
            bucket = buckets.get(value)
            if bucket is None:
                if value != value:
                    continue  # NaN
                buckets[value] = {rid}
            else:
                bucket.add(rid)

    def on_delete(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        buckets = self._buckets
        for value, rid in zip(columns[self._col_pos], rids):
            bucket = buckets.get(value)
            if bucket is None and value != value:
                continue  # NaN, never filed
            if bucket is None or rid not in bucket:
                raise StorageError(
                    f"hash index on {self.column!r} out of sync: delete of unknown rid {rid}"
                )
            bucket.remove(rid)
            if not bucket:
                del buckets[value]

    def on_compact(self, remap: Mapping[int, int]) -> None:
        self._buckets = {
            value: {remap[rid] for rid in bucket}
            for value, bucket in self._buckets.items()
            if bucket
        }


class SortedIndex:
    """Order index: sorted ``(value, rid)`` pairs with lazy deletion.

    Deletions mark their rids dead in a side set, one ``update`` per
    batch; the sorted list is purged when dead entries exceed half the
    list (checked once per batch, and on compaction). This keeps delete
    O(1) per row — important because decay evicts constantly.

    NULL keys are not indexed: NULL never satisfies a range predicate,
    and it does not order against a value.
    """

    def __init__(self, table: Table, column: str) -> None:
        self.table = table
        self.column = column
        pos = self._col_pos = table.schema.index_of(column)
        self._nullable = table.schema.columns[pos].nullable
        self._entries: list[tuple[Any, int]] = sorted(
            (values[pos], rid)
            for rid, values in table.iter_rows()
            if values[pos] is not None
        )
        self._dead: set[int] = set()
        table.add_observer(self)

    def __len__(self) -> int:
        return len(self._entries) - len(self._dead)

    def _purge(self) -> None:
        if len(self._dead) * 2 > len(self._entries):
            self._entries = [(v, rid) for v, rid in self._entries if rid not in self._dead]
            self._dead.clear()

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> RowSet:
        """Live rows with indexed value in the given (closed) range.

        ``None`` bounds are open-ended. ``include_*`` toggles closed vs
        open endpoints.
        """
        entries = self._entries
        if low is None:
            lo = 0
        else:
            key = (low, -1) if include_low else (low, float("inf"))
            lo = bisect.bisect_left(entries, key)
        if high is None:
            hi = len(entries)
        else:
            key = (high, float("inf")) if include_high else (high, -1)
            hi = bisect.bisect_right(entries, key)
        dead = self._dead
        return RowSet(rid for _, rid in entries[lo:hi] if rid not in dead)

    def min_value(self) -> Any:
        """Smallest live indexed value, or None when empty."""
        for value, rid in self._entries:
            if rid not in self._dead:
                return value
        return None

    def max_value(self) -> Any:
        """Largest live indexed value, or None when empty."""
        for value, rid in reversed(self._entries):
            if rid not in self._dead:
                return value
        return None

    def ascending(self) -> list[int]:
        """Live row ids in ascending indexed-value order."""
        dead = self._dead
        return [rid for _, rid in self._entries if rid not in dead]

    # -- TableObserver protocol ---------------------------------------

    def on_append(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        pairs: Iterable[tuple[Any, int]] = zip(columns[self._col_pos], rids)
        if self._nullable:
            pairs = [(value, rid) for value, rid in pairs if value is not None]
        batch = sorted(pairs)
        if not batch:
            return
        entries = self._entries
        if not entries or entries[-1] <= batch[0]:
            entries.extend(batch)
            return
        # a batch reaching below the current tail (never the case on an
        # insertion-time column): merge only the stretch it overlaps, so
        # one out-of-order row is one insort
        lo = bisect.bisect_left(entries, batch[0])
        hi = bisect.bisect_right(entries, batch[-1], lo)
        entries[lo:hi] = sorted(entries[lo:hi] + batch)

    def on_delete(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        if self._nullable:
            values = columns[self._col_pos]
            self._dead.update(rid for rid, value in zip(rids, values) if value is not None)
        else:
            self._dead.update(rids)
        self._purge()

    def on_compact(self, remap: Mapping[int, int]) -> None:
        self._entries = [
            (value, remap[rid])
            for value, rid in self._entries
            if rid not in self._dead and rid in remap
        ]
        self._dead.clear()
