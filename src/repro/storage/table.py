"""The physical table: append-only row space with tombstones.

Rows receive monotonically increasing row ids in insertion order; a
deletion only sets a tombstone, so row ids stay stable until an
explicit :meth:`Table.compact`. Insertion order doubles as the *time
axis* the paper's EGI fungus spreads along, which is why the table
exposes :meth:`Table.prev_live` / :meth:`Table.next_live` neighbour
navigation.

Rows go in a batch at a time, and there is one way in:
:meth:`Table.append_columns` takes one coerced value list per column
(:meth:`Schema.coerce_columns` output), extends every column once and
tells each observer once. :meth:`Table.append_many` coerces first, so a
batch with a bad row writes nothing; :meth:`Table.append` is the batch
of one.

Observers (secondary indexes, decay bookkeeping) register through
:meth:`Table.add_observer` and are told about every append, delete and
compaction, so they never go stale. An append reaches an observer as
one ``on_append_many(rids, columns)`` call per batch, or — for an
observer that only defines it — one ``on_append(rid, values)`` per row.

One storage backend: the live mask is always a boolean array, and the
freshness column plus any ``vector_columns`` (in practice ``t`` and
``f``) are ``float64`` arrays (:mod:`repro.storage.vector`); the other
columns are lists. The bulk primitives — :meth:`freshness_array`,
:meth:`read_rows`, :meth:`write_rows`, :meth:`live_mask`,
:meth:`live_runs`, :meth:`delete_many` — apply Law 1 as array
operations, and the batch readers refuse a column that is not
array-backed. The only loops left choose on input size: a handful of
rids is cheaper to check one by one than to hand to numpy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
)

from repro.errors import StorageError

if TYPE_CHECKING:
    from repro.storage.raceprobe import RaceProbe
from repro.obs.profile import PROFILER
from repro.storage.rowset import RowSet
from repro.storage.schema import DataType, Schema
from repro.storage.vector import BoolColumn, FloatColumn, numpy


class TableObserver(Protocol):
    """Callbacks a table invokes as its row space changes.

    Implementations must tolerate any call order that matches the
    table's actual mutation order; the table never calls observers
    re-entrantly.
    """

    def on_append(self, rid: int, values: tuple) -> None:
        """Row ``rid`` was appended with ``values`` (schema order)."""

    def on_append_many(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        """Optional batch form: rows ``rids`` (ascending, contiguous) were
        appended, ``columns`` holding one value list per schema column.

        An observer that defines it gets one call per batch and no
        ``on_append``; one that does not gets ``on_append`` per row, in
        rid order. Both arguments are shared with the other observers —
        read, never mutate.
        """

    def on_delete(self, rid: int, values: tuple) -> None:
        """Row ``rid`` was tombstoned; ``values`` are its last values."""

    def on_compact(self, remap: Mapping[int, int]) -> None:
        """The table compacted; ``remap`` maps old live rid -> new rid."""


#: column dtypes eligible for float64 vector backing
_VECTORIZABLE = (DataType.FLOAT, DataType.TIMESTAMP)

#: column dtypes the query mask compiler can read as float64 arrays
_MASKABLE = (DataType.INT, DataType.FLOAT, DataType.TIMESTAMP)

#: largest magnitude an int survives an exact float64 round-trip at
_EXACT_INT = float(2**53)


class ColumnMaskData:
    """A column's float64 view for vectorized predicate evaluation.

    ``values`` covers the whole allocated row space (tombstoned slots
    hold stale values — index with known-live rids only). ``nulls`` is
    a parallel boolean array, or ``None`` when the column holds no
    NULLs. ``int_bound`` is the max-abs value for INT columns (the mask
    compiler bound-checks integer arithmetic against 2**53 exactness);
    0.0 for float/timestamp columns, whose float64 arithmetic is
    bit-identical to Python's by construction.
    """

    __slots__ = ("values", "nulls", "int_bound", "is_int")

    def __init__(self, values: Any, nulls: Any, int_bound: float, is_int: bool) -> None:
        self.values = values
        self.nulls = nulls
        self.int_bound = int_bound
        self.is_int = is_int


def _runs_of_sorted(rids: Sequence[int]) -> list[tuple[int, int]]:
    """Collapse ascending rids into inclusive contiguous runs."""
    runs: list[tuple[int, int]] = []
    start = prev = None
    for rid in rids:
        if start is None:
            start = prev = rid
        elif rid == prev + 1:
            prev = rid
        else:
            runs.append((start, prev))
            start = prev = rid
    if start is not None:
        runs.append((start, prev))
    return runs


class Table:
    """Columnar table with tombstone deletes and stable row ids.

    The table is deliberately single-writer / no-concurrency: the paper's
    decay clock and query engine interleave at tick granularity, so a
    simple mutable structure with observer hooks is the honest substrate.
    """

    def __init__(
        self,
        schema: Schema,
        name: str = "R",
        vector_columns: Sequence[str] = (),
        freshness_column: str | None = None,
    ) -> None:
        self.schema = schema
        self.name = name
        self.freshness_column = freshness_column
        requested = [*vector_columns]
        if freshness_column is not None:
            requested.append(freshness_column)
        for column in requested:
            dtype = schema.column(column).dtype
            if dtype not in _VECTORIZABLE:
                raise StorageError(
                    f"table {name!r}: column {column!r} has dtype "
                    f"{dtype.value}; only float/timestamp columns vectorize"
                )
        positions = frozenset(schema.index_of(column) for column in requested)
        self._vector_positions = positions
        self._columns: list[Any] = [
            FloatColumn() if pos in positions else []
            for pos in range(len(schema))
        ]
        self._live = BoolColumn()
        self._live_count = 0
        self._next_rid = 0
        self._observers: list[TableObserver] = []
        # runtime thread-sanitizer hook (see repro.storage.raceprobe);
        # None keeps every mutator at one is-None check of overhead
        self.probe: RaceProbe | None = None
        self._generation = 0  # bumped on compaction; indexes check it
        self._version = 0  # bumped on every liveness change; caches check it
        self._live_cache: tuple[int, list[int]] | None = None
        # per-column value-mutation counters: liveness changes do not
        # touch them, so value-derived caches (mask arrays, histograms)
        # survive deletes and only rebuild when a cell really moved
        self._data_versions = [0] * len(schema)
        self._mask_cache: dict[int, tuple[tuple, ColumnMaskData | None]] = {}
        self._freshness_pos = (
            schema.index_of(freshness_column) if freshness_column is not None else None
        )
        # rot dirty-map: a conservative superset of the rids whose
        # freshness may differ from 1.0. Invariant (the freshness-prune
        # soundness condition): every *live* row outside these spans has
        # f == 1.0 exactly. Spans are never un-marked (rows re-pinned to
        # 1.0 stay covered) — conservative, so pruning stays sound.
        if freshness_column is not None:
            # deferred import: repro.fungi.__init__ pulls in modules
            # that import this one; by the time a table is constructed
            # the cycle has resolved
            from repro.fungi.spotset import SpotSet

            self._rot: Any = SpotSet()
        else:
            self._rot = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of *live* rows (the paper's "extent of R")."""
        return self._live_count

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, live={self._live_count}, "
            f"allocated={self._next_rid}, cols={list(self.schema.names)})"
        )

    @property
    def allocated(self) -> int:
        """Total row slots ever allocated (live + tombstoned)."""
        return self._next_rid

    @property
    def tombstones(self) -> int:
        """Number of deleted-but-not-compacted rows."""
        return self._next_rid - self._live_count

    @property
    def generation(self) -> int:
        """Compaction counter; row ids are only comparable within one."""
        return self._generation

    def is_live(self, rid: int) -> bool:
        """True when ``rid`` exists and has not been deleted."""
        return 0 <= rid < self._next_rid and self._live[rid]

    def _check_live(self, rid: int) -> None:
        if not (0 <= rid < self._next_rid):
            raise StorageError(f"row id {rid} out of range [0, {self._next_rid}) in {self.name!r}")
        if not self._live[rid]:
            raise StorageError(f"row id {rid} is deleted in table {self.name!r}")

    def check_live_many(self, rids: Sequence[int]) -> None:
        """Raise :class:`StorageError` unless every rid is a live row."""
        if len(rids) < 32:
            # ufunc reductions cost ~2us of fixed dispatch each;
            # for a handful of rids a direct loop is far cheaper
            live = self._live.array()
            upper = self._next_rid
            for rid in rids:
                rid = int(rid)
                if not 0 <= rid < upper:
                    raise StorageError(
                        f"row id {rid} out of range [0, {upper}) in {self.name!r}"
                    )
                if not live[rid]:
                    raise StorageError(
                        f"row id {rid} is deleted in table {self.name!r}"
                    )
            return
        arr = numpy.asarray(rids, dtype=numpy.intp)
        if int(arr.min()) < 0 or int(arr.max()) >= self._next_rid:
            bad = next(r for r in rids if not 0 <= r < self._next_rid)
            raise StorageError(
                f"row id {bad} out of range [0, {self._next_rid}) in {self.name!r}"
            )
        if not self._live.array()[arr].all():
            bad = next(r for r in rids if not self._live[r])
            raise StorageError(f"row id {bad} is deleted in table {self.name!r}")

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def add_observer(self, observer: TableObserver) -> None:
        """Register an observer for appends/deletes/compactions."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def append(self, row: Mapping[str, Any] | Sequence[Any]) -> int:
        """Append one row (a batch of one), returning its row id."""
        return self.append_columns(self.schema.coerce_columns((row,)))[0]

    def append_many(
        self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> RowSet:
        """Append many rows, returning their (contiguous) row ids.

        All-or-nothing: the batch is coerced as a whole first, so a bad
        row raises before anything is written.
        """
        columns = self.schema.coerce_columns(rows)
        return RowSet.from_sorted(self.append_columns(columns))

    def append_columns(self, columns: Sequence[list[Any]]) -> tuple[int, ...]:
        """Append a batch given as one value list per column.

        The one write path: ``columns`` is in schema order, equally
        long and *already coerced* (:meth:`Schema.coerce_columns`
        output, or fills stamped by the decay core). Each column grows
        by one ``extend``, and every observer is handed the same rid
        tuple — also the return value — so no one materialises its own.
        """
        count = len(columns[0])
        if count == 0:
            return ()
        if self.probe is not None:
            self.probe.note(self.name, "append")
        start = self._next_rid
        rids = tuple(range(start, start + count))
        for col, values in zip(self._columns, columns):
            col.extend(values)
        self._live.extend([True] * count)
        self._next_rid += count
        self._live_count += count
        self._version += 1
        if self._freshness_pos is not None:
            freshness = columns[self._freshness_pos]
            if freshness.count(1.0) != count:
                # restore and snapshot-load paths append rows mid-decay; they must
                # land inside the dirty map or span pruning would skip them
                self.mark_rot([r for r, f in zip(rids, freshness) if f != 1.0])
        for obs in self._observers:
            notify = getattr(obs, "on_append_many", None)
            if notify is not None:
                notify(rids, columns)
            else:
                for rid, values in zip(rids, zip(*columns)):
                    obs.on_append(rid, values)
        return rids

    def delete(self, rid: int) -> None:
        """Tombstone one live row."""
        if self.probe is not None:
            self.probe.note(self.name, "delete")
        self._check_live(rid)
        values = tuple(col[rid] for col in self._columns)
        self._live[rid] = False
        self._live_count -= 1
        self._version += 1
        for obs in self._observers:
            obs.on_delete(rid, values)

    def delete_many(self, rids: Sequence[int]) -> None:
        """Tombstone many live rows in one pass.

        Validates every rid up front (so a bad batch deletes nothing),
        flips the whole live mask in one vectorized write, then
        notifies observers once per row in the order given — per-row
        eviction provenance is preserved while the mask work is O(1)
        Python calls.
        """
        ordered = list(rids)
        if not ordered:
            return
        if self.probe is not None:
            self.probe.note(self.name, "delete_many")
        self.check_live_many(ordered)
        if len(set(ordered)) != len(ordered):
            raise StorageError(f"duplicate row ids in batch delete on {self.name!r}")
        captured = [
            (rid, tuple(col[rid] for col in self._columns)) for rid in ordered
        ]
        self._live.array()[numpy.asarray(ordered, dtype=numpy.intp)] = False
        self._live_count -= len(ordered)
        self._version += 1
        for rid, values in captured:
            for obs in self._observers:
                obs.on_delete(rid, values)

    def delete_rows(self, rows: RowSet) -> None:
        """Tombstone every row in ``rows`` (all must be live)."""
        self.delete_many(list(rows))

    def update(self, rid: int, column: str, value: Any) -> None:
        """Overwrite one cell of a live row (used for freshness decay)."""
        if self.probe is not None:
            self.probe.note(self.name, "update")
        self._check_live(rid)
        col_def = self.schema.column(column)
        pos = self.schema.index_of(column)
        old = self._columns[pos][rid]
        new = col_def.coerce(value)
        if old == new:
            return
        self._columns[pos][rid] = new
        self._data_versions[pos] += 1
        if pos == self._freshness_pos and new != 1.0:
            self._rot.add(rid)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def value(self, rid: int, column: str) -> Any:
        """One cell of a live row."""
        self._check_live(rid)
        return self._columns[self.schema.index_of(column)][rid]

    def row(self, rid: int) -> tuple:
        """All values of a live row, in schema order."""
        self._check_live(rid)
        return tuple(col[rid] for col in self._columns)

    def row_dict(self, rid: int) -> dict[str, Any]:
        """One live row as a ``{column: value}`` mapping."""
        return dict(zip(self.schema.names, self.row(rid)))

    def column_values(self, column: str, rows: RowSet | None = None) -> list[Any]:
        """The values of ``column`` for ``rows`` (default: all live rows)."""
        col = self._columns[self.schema.index_of(column)]
        if rows is None:
            return [col[rid] for rid in self.live_rows()]
        for rid in rows:
            self._check_live(rid)
        return [col[rid] for rid in rows]

    def live_rows(self) -> Iterator[int]:
        """Row ids of live rows, ascending (insertion/time order)."""
        live = self._live
        return (rid for rid in range(self._next_rid) if live[rid])

    def live_rowset(self) -> RowSet:
        """All live row ids as a :class:`RowSet`."""
        return RowSet(self.live_rows())

    def live_list(self) -> list[int]:
        """All live row ids, ascending, cached per liveness version.

        The returned list is shared with the cache — callers must not
        mutate it. Any append/delete/compaction invalidates it.
        """
        cache = self._live_cache
        if cache is not None and cache[0] == self._version:
            return cache[1]
        rows = numpy.flatnonzero(self._live.array()).tolist()
        self._live_cache = (self._version, rows)
        return rows

    def iter_rows(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, values)`` for every live row in time order."""
        for rid in self.live_rows():
            yield rid, tuple(col[rid] for col in self._columns)

    def scan(self, predicate: Callable[[dict[str, Any]], bool] | None = None) -> RowSet:
        """Row ids of live rows matching ``predicate`` (all, if None)."""
        if predicate is None:
            return self.live_rowset()
        profiling = PROFILER.enabled
        start = PROFILER.time() if profiling else 0.0
        names = self.schema.names
        matches = []
        scanned = 0
        for rid, values in self.iter_rows():
            scanned += 1
            if predicate(dict(zip(names, values))):
                matches.append(rid)
        if profiling:
            PROFILER.record("table.scan", rows=scanned, seconds=PROFILER.time() - start)
        return RowSet(matches)

    # ------------------------------------------------------------------
    # bulk decay primitives (array-backed columns only)
    # ------------------------------------------------------------------

    def column_array(self, column: str) -> Any:
        """The raw float64 view of a vector-backed column.

        The view covers the whole allocated row space (tombstoned slots
        hold stale values — mask with :meth:`live_mask`). Writes through
        the view bypass event publication, so only the sanctioned
        freshness mutators in ``core/table.py`` may mutate it.
        """
        pos = self.schema.index_of(column)
        if pos not in self._vector_positions:
            raise StorageError(
                f"column {column!r} of {self.name!r} is not vector-backed"
            )
        return self._columns[pos].array()

    def freshness_array(self) -> Any:
        """The mutable float64 view of the freshness column (length
        :attr:`allocated`)."""
        if self.freshness_column is None:
            raise StorageError(f"table {self.name!r} has no freshness column")
        return self.column_array(self.freshness_column)

    def live_mask(self) -> Any:
        """Boolean liveness per allocated row slot: the shared array
        view (do not mutate)."""
        return self._live.array()

    def read_rows(self, column: str, rids: Sequence[int]) -> Any:
        """Values of vector-backed ``column`` for live ``rids``, as an array."""
        self.check_live_many(rids)
        return self.column_array(column)[numpy.asarray(rids, dtype=numpy.intp)]

    def write_rows(self, column: str, rids: Sequence[int], values: Any) -> None:
        """Overwrite vector-backed ``column`` for live ``rids`` with ``values``.

        The bulk counterpart of :meth:`update`; values must already be
        floats (no per-cell coercion).
        """
        if self.probe is not None:
            self.probe.note(self.name, "write_rows")
        self.check_live_many(rids)
        array = self.column_array(column)
        pos = self.schema.index_of(column)
        self._data_versions[pos] += 1
        if pos == self._freshness_pos:
            self.mark_rot(rids)
        array[numpy.asarray(rids, dtype=numpy.intp)] = values

    def live_runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Maximal contiguous runs of live rids within ``[lo, hi]``.

        Returned as inclusive ``(start, end)`` pairs in ascending
        order — the shape rot spots keep their membership in.
        """
        lo = max(lo, 0)
        hi = min(hi, self._next_rid - 1)
        if lo > hi:
            return []
        segment = self._live.array()[lo : hi + 1]
        # fast path for the common sync case: the whole range is
        # still alive (spot interiors between eviction batches)
        if segment.all():
            return [(lo, hi)]
        idx = numpy.flatnonzero(segment)
        if idx.size == 0:
            return []
        gaps = numpy.flatnonzero(numpy.diff(idx) > 1)
        starts = numpy.concatenate(([0], gaps + 1))
        ends = numpy.concatenate((gaps, [idx.size - 1]))
        return [
            (int(idx[s]) + lo, int(idx[e]) + lo)
            for s, e in zip(starts.tolist(), ends.tolist())
        ]

    # ------------------------------------------------------------------
    # rot dirty-map (freshness-aware span pruning)
    # ------------------------------------------------------------------

    def mark_rot(self, rids: Sequence[int]) -> None:
        """Add ``rids`` to the rot dirty-map (no-op without a freshness
        column).

        Deliberately conservative: the whole batch is marked without
        inspecting the written values, so a write that restores f = 1.0
        keeps its span in the map. Soundness only needs the superset
        direction; precision returns at the next :meth:`compact`.
        """
        if self._rot is None or len(rids) == 0:
            return
        if len(rids) > 64:
            # the decay kernels hit this every cycle with the whole
            # infected batch, so the common cases must stay cheap:
            # a batch inside an already-dirty span is a no-op, and run
            # detection on the rest stays in C. Duplicates need no
            # dedup pass: a dup's diff is 0, never a gap.
            arr = numpy.asarray(rids, dtype=numpy.intp)
            lo = int(arr.min())
            hi = int(arr.max())
            if self._rot.covers_span(lo, hi):
                return
            diffs = numpy.diff(arr)
            if numpy.any(diffs < 0):
                arr = numpy.sort(arr)
                diffs = numpy.diff(arr)
            gaps = numpy.flatnonzero(diffs > 1)
            starts = numpy.concatenate(([0], gaps + 1))
            ends = numpy.concatenate((gaps, [arr.size - 1]))
            self._rot.add_runs(
                (int(arr[s]), int(arr[e]))
                for s, e in zip(starts.tolist(), ends.tolist())
            )
            return
        ordered = sorted(int(r) for r in rids)
        self._rot.add_runs(_runs_of_sorted(ordered))

    def rot_spans(self) -> list[tuple[int, int]]:
        """The dirty-map spans: inclusive ``(lo, hi)`` rid intervals.

        Every live row *outside* these spans has freshness exactly 1.0
        — the invariant the freshness-aware planner prunes against.
        """
        if self._rot is None:
            return []
        return self._rot.spans()

    def rot_live_rows(self) -> list[int]:
        """Live rids inside the dirty spans, ascending.

        The candidate set of a span-pruned scan (``live_runs`` does the
        liveness intersection).
        """
        out: list[int] = []
        if self._rot is None:
            return out
        for lo, hi in self._rot.spans():
            for start, end in self.live_runs(lo, hi):
                out.extend(range(start, end + 1))
        return out

    def rot_live_count(self) -> int:
        """Number of live rows inside the dirty spans (cost-model input)."""
        if self._rot is None:
            return 0
        total = 0
        for lo, hi in self._rot.spans():
            for start, end in self.live_runs(lo, hi):
                total += end - start + 1
        return total

    # ------------------------------------------------------------------
    # predicate-mask views (vectorized query execution)
    # ------------------------------------------------------------------

    def data_token(self, column: str) -> tuple:
        """Cache token that changes whenever ``column``'s values can.

        Liveness flips don't invalidate value-derived caches; appends
        (``allocated`` grows), cell writes (data version) and
        compaction (generation) do.
        """
        pos = self.schema.index_of(column)
        return (self._generation, self._next_rid, self._data_versions[pos])

    def gather(self, column: str, rids: Sequence[int]) -> list[Any]:
        """Values of ``column`` for known-live ``rids``, as Python objects.

        The late-materialization fast path: no per-rid liveness
        re-check (callers pass rids that just came off a live scan),
        and non-vector columns are read from their backing lists so
        value types round-trip exactly (an INT stays ``int``).
        """
        pos = self.schema.index_of(column)
        col = self._columns[pos]
        if pos in self._vector_positions and len(rids) > 0:
            return col.array()[numpy.asarray(rids, dtype=numpy.intp)].tolist()
        return [col[rid] for rid in rids]

    def mask_data(self, column: str) -> ColumnMaskData | None:
        """Float64 view of a numeric column for boolean-mask predicates.

        Returns ``None`` when the column cannot back exact mask
        arithmetic: non-numeric dtype, or an INT column whose magnitude
        exceeds the float64-exact range. Views for non-vector columns
        are cached per :meth:`data_token`.
        """
        pos = self.schema.index_of(column)
        dtype = self.schema.columns[pos].dtype
        if dtype not in _MASKABLE:
            return None
        if pos in self._vector_positions:
            return ColumnMaskData(self._columns[pos].array(), None, 0.0, False)
        token = self.data_token(column)
        cached = self._mask_cache.get(pos)
        if cached is not None and cached[0] == token:
            return cached[1]
        data = self._build_mask_data(pos, dtype)
        self._mask_cache[pos] = (token, data)
        return data

    def _build_mask_data(self, pos: int, dtype: DataType) -> ColumnMaskData | None:
        col = self._columns[pos]
        nulls = None
        # asarray would silently coerce None to nan, losing the null
        # mask SQL three-valued logic depends on — detect NULLs first
        if any(v is None for v in col):
            values = numpy.zeros(len(col), dtype=numpy.float64)
            nulls = numpy.zeros(len(col), dtype=numpy.bool_)
            for i, v in enumerate(col):
                if v is None:
                    nulls[i] = True
                else:
                    values[i] = v
        else:
            values = numpy.asarray(col, dtype=numpy.float64)
        is_int = dtype is DataType.INT
        bound = 0.0
        if is_int and values.size:
            bound = float(numpy.max(numpy.abs(values)))
            if bound >= _EXACT_INT:
                return None
        return ColumnMaskData(values, nulls, bound, is_int)

    # ------------------------------------------------------------------
    # neighbour navigation (EGI's spread axis)
    # ------------------------------------------------------------------

    def prev_live(self, rid: int) -> int | None:
        """The nearest live row id strictly before ``rid``, or None.

        ``rid`` itself may be live or tombstoned — EGI asks for the
        neighbours of rows it has just evicted, so both must work.
        """
        if not (0 <= rid < self._next_rid):
            raise StorageError(f"row id {rid} out of range in {self.name!r}")
        if rid == 0:
            return None
        live = self._live.array()
        # adjacency fast path: without a tombstone gap the previous
        # row id is simply rid - 1 (the overwhelmingly common case)
        if live[rid - 1]:
            return rid - 1
        # reversed view; bool argmax short-circuits at the first hit
        before = live[rid - 1 :: -1]
        pos = int(numpy.argmax(before))
        return rid - 1 - pos if before[pos] else None

    def next_live(self, rid: int) -> int | None:
        """The nearest live row id strictly after ``rid``, or None."""
        if not (0 <= rid < self._next_rid):
            raise StorageError(f"row id {rid} out of range in {self.name!r}")
        if rid + 1 >= self._next_rid:
            return None
        live = self._live.array()
        if live[rid + 1]:
            return rid + 1
        after = live[rid + 2 :]
        if after.size == 0:
            return None
        pos = int(numpy.argmax(after))
        return rid + 2 + pos if after[pos] else None

    # ------------------------------------------------------------------
    # dense copies: compaction and frozen read views
    # ------------------------------------------------------------------

    def _adopt_live_rows(self, source: "Table") -> list[int]:
        """Make this table's row space a dense copy of ``source``'s live rows.

        The one survivor gather: every column is copied at the live
        rids (new arrays and lists, never views), liveness becomes
        all-true, and the rot dirty-map is carried over by rank — dense
        renumbering only closes gaps, so the survivors of a span stay
        contiguous. ``source`` may be ``self`` (compaction). Returns
        the survivors, ascending; a survivor's new rid is its position.
        """
        survivors = source.live_list()
        count = len(survivors)
        for pos, col in enumerate(source._columns):
            # one column at a time: compaction frees each old column
            # before gathering the next
            self._columns[pos] = (
                col.take(survivors)
                if pos in source._vector_positions
                else [col[rid] for rid in survivors]
            )
        self._live = BoolColumn(count, fill=True)
        self._next_rid = count
        self._live_count = count
        if source._rot is not None:
            runs = (
                (bisect_left(survivors, lo), bisect_right(survivors, hi) - 1)
                for lo, hi in source._rot.spans()
            )
            self._rot.replace([(lo, hi) for lo, hi in runs if lo <= hi])
        return survivors

    def dense_copy(self) -> "Table":
        """A frozen-in-time copy of the live rows as an ordinary table.

        Same schema, same column layout, rids renumbered densely, sharing no
        mutable state with this table: what a tick snapshot queries
        while Law 1 keeps mutating the original. Observers and indexes
        are not carried over.
        """
        names = self.schema.names
        copy = Table(
            self.schema,
            name=self.name,
            vector_columns=[names[pos] for pos in sorted(self._vector_positions)],
            freshness_column=self.freshness_column,
        )
        copy._adopt_live_rows(self)
        return copy

    def compact(self) -> dict[int, int]:
        """Physically drop tombstones, remapping live rows densely.

        Returns the ``{old_rid: new_rid}`` remap and notifies observers.
        Relative insertion order (hence the time axis) is preserved.
        """
        if self.tombstones == 0:
            return {}
        if self.probe is not None:
            self.probe.note(self.name, "compact")
        survivors = self._adopt_live_rows(self)
        remap = {old: new for new, old in enumerate(survivors)}
        self._generation += 1
        self._version += 1
        self._live_cache = None
        self._mask_cache.clear()
        for obs in self._observers:
            obs.on_compact(remap)
        return remap

    # ------------------------------------------------------------------
    # bulk export
    # ------------------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """All live rows as dicts, in time order (small tables only)."""
        names = self.schema.names
        return [dict(zip(names, values)) for _, values in self.iter_rows()]
