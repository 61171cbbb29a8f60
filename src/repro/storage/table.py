"""The physical table: append-only row space with tombstones.

Rows receive monotonically increasing row ids in insertion order; a
deletion only sets a tombstone, so row ids stay stable until an
explicit :meth:`Table.compact`. Insertion order doubles as the *time
axis* the paper's EGI fungus spreads along, which is why the table
exposes neighbour navigation: :meth:`Table.neighbours` gives the
nearest live row before and after each of a batch of spans.

The tombstones themselves are kept as intervals, a
:class:`~repro.fungi.spotset.SpotSet` of dead-rid runs. Only two
places flip liveness — :meth:`Table.delete_many` adds its batch's runs
in one merge, and :meth:`Table._adopt_live_rows` (compaction, dense
copies) empties the index — so it is exact. A dead neighbour jumps to
the edge of its tombstone run by one ``searchsorted``, and
:meth:`Table.live_runs` is an interval subtraction, never a scan of the
live mask.

Rows go in a batch at a time, and there is one way in:
:meth:`Table.append_columns` takes one coerced value list per column
(:meth:`Schema.coerce_columns` output), extends every column once and
tells each observer once. :meth:`Table.append_many` coerces first, so a
batch with a bad row writes nothing; :meth:`Table.append` is the batch
of one. Likewise there is one way out, :meth:`Table.delete_many`
(:meth:`Table.delete` is its batch of one), and one writer of stored
cells: :meth:`Table.write_rows` notes the race probe, checks liveness
and bumps the column's data version, so every freshness write — vector
or scalar kernel — keeps the caches current. Nothing beside the data
tracks which rows have rotted: a scan for ``f < x`` reads the freshness
array itself.

Observers (the secondary indexes) register through
:meth:`Table.add_observer` and are told about every append, delete and
compaction, so they never go stale. Observers get the batch: an append
reaches each one as one ``on_append(rids, columns)`` call and a delete
as one ``on_delete(rids, columns)`` call, ``columns`` holding one value
list per schema column (the delete's gathered once, before the rows
die: one fancy index per array column, one comprehension per list
column). :meth:`Table.delete_many` also returns those columns, which is
how the decay core's one exit,
:meth:`~repro.core.table.DecayingTable.evict`, books and publishes the
rows it removed without observing its own storage.

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
from repro.storage.rowset import RowSet
from repro.storage.schema import DataType, Schema
from repro.storage.vector import BoolColumn, FloatColumn, numpy


class TableObserver(Protocol):
    """Callbacks a table invokes as its row space changes.

    Implementations must tolerate any call order that matches the
    table's actual mutation order; the table never calls observers
    re-entrantly. Every call carries a whole batch, and its arguments
    are shared with the other observers — read, never mutate.
    """

    def on_append(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        """Rows ``rids`` (ascending, contiguous) were appended, ``columns``
        holding one value list per schema column. One call per batch."""

    def on_delete(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        """Rows ``rids`` (in the order given to :meth:`Table.delete_many`)
        were tombstoned; ``columns`` holds one list of their last values
        per schema column, aligned with ``rids``. One call per batch."""

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


class ColumnCodes:
    """A STR column's dictionary view: one ``int32`` code per row.

    ``codes`` covers the whole allocated row space (index with
    known-live rids only); ``-1`` is NULL, any other code indexes
    ``values``, the column's distinct values in first-seen order.
    ``has_null`` tells whether any code is ``-1``.
    """

    __slots__ = ("codes", "values", "has_null", "_index")

    def __init__(
        self, codes: Any, values: tuple, has_null: bool, index: dict[Any, int]
    ) -> None:
        self.codes = codes
        self.values = values
        self.has_null = has_null
        # value -> code, shared with the view extended from this one
        self._index = index


def _mask_view(
    tail: list[Any], prev: ColumnMaskData | None, is_int: bool
) -> ColumnMaskData | None:
    """``prev`` (None: no rows yet) extended by the coerced cells ``tail``."""
    nulls = None
    # asarray would silently coerce None to nan, losing the null
    # mask SQL three-valued logic depends on — detect NULLs first
    if any(v is None for v in tail):
        values = numpy.zeros(len(tail), dtype=numpy.float64)
        nulls = numpy.zeros(len(tail), dtype=numpy.bool_)
        for i, v in enumerate(tail):
            if v is None:
                nulls[i] = True
            else:
                values[i] = v
    else:
        values = numpy.asarray(tail, dtype=numpy.float64)
    bound = 0.0
    if is_int and values.size:
        bound = float(numpy.max(numpy.abs(values)))
        if bound >= _EXACT_INT:
            return None
    if prev is None:
        return ColumnMaskData(values, nulls, bound, is_int)
    if prev.nulls is not None or nulls is not None:
        nulls = numpy.concatenate(
            (
                numpy.zeros(len(prev.values), dtype=numpy.bool_)
                if prev.nulls is None
                else prev.nulls,
                numpy.zeros(len(tail), dtype=numpy.bool_) if nulls is None else nulls,
            )
        )
    return ColumnMaskData(
        numpy.concatenate((prev.values, values)),
        nulls,
        max(prev.int_bound, bound),
        is_int,
    )


def _codes_view(tail: list[Any], prev: ColumnCodes | None) -> ColumnCodes:
    """``prev`` (None: no rows yet) extended by the cells ``tail``."""
    index: dict[Any, int] = {} if prev is None else prev._index
    # len(index) is read before setdefault inserts: the next fresh code
    codes = numpy.fromiter(
        (-1 if v is None else index.setdefault(v, len(index)) for v in tail),
        dtype=numpy.int32,
        count=len(tail),
    )
    has_null = bool(codes.size) and bool((codes < 0).any())
    if prev is None:
        return ColumnCodes(codes, tuple(index), has_null, index)
    values = prev.values if len(index) == len(prev.values) else tuple(index)
    return ColumnCodes(
        numpy.concatenate((prev.codes, codes)),
        values,
        prev.has_null or has_null,
        index,
    )


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
        # (column position, view kind) -> ((generation, data version),
        # rows covered, view): see _view
        self._views: dict[tuple[int, str], tuple[tuple, int, Any]] = {}
        # deferred import: repro.fungi.__init__ pulls in modules that
        # import this one; by the time a table is constructed the cycle
        # has resolved
        from repro.fungi.spotset import SpotSet

        # tombstone-run index: exactly the dead rids in [0, allocated)
        self._tombs = SpotSet()

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

    def check_live_many(self, rids: Sequence[int]) -> None:
        """Raise :class:`StorageError` unless every rid is a live row.

        A rid is an integer: a bool, a float or any other non-integral
        value raises too, before it can index the live mask.
        """
        if len(rids) < 32:
            # ufunc reductions cost ~2us of fixed dispatch each;
            # for a handful of rids a direct loop is far cheaper
            live = self._live.array()
            upper = self._next_rid
            for rid in rids:
                if isinstance(rid, (bool, numpy.bool_)) or not isinstance(
                    rid, (int, numpy.integer)
                ):
                    raise StorageError(f"row id {rid!r} is not an integer")
                if not 0 <= rid < upper:
                    raise StorageError(
                        f"row id {rid} out of range [0, {upper}) in {self.name!r}"
                    )
                if not live[rid]:
                    raise StorageError(
                        f"row id {rid} is deleted in table {self.name!r}"
                    )
            return
        arr = numpy.asarray(rids)
        # numpy turns a bool among ints into an int: look at the types
        if arr.dtype.kind not in "iu" or (
            not isinstance(rids, numpy.ndarray)
            and not {bool, numpy.bool_}.isdisjoint(map(type, rids))
        ):
            raise StorageError(
                f"row ids of {self.name!r} are not integers ({arr.dtype})"
            )
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
        for obs in self._observers:
            obs.on_append(rids, columns)
        return rids

    def delete(self, rid: int) -> None:
        """Tombstone one live row (a batch of one)."""
        self.delete_many((rid,))

    def delete_many(self, rids: Sequence[int]) -> list[list[Any]]:
        """Tombstone many live rows in one pass; returns their last values.

        Validates every rid up front (so a bad batch deletes nothing),
        gathers the dying rows' values once per column, flips the whole
        live mask in one vectorized write, adds the batch's runs to the
        tombstone index in one merge, then makes one ``on_delete`` call
        per observer with the rids in the order given. The gathered
        columns — one value list per schema column, aligned with
        ``rids`` — are returned (empty for an empty batch).
        """
        ordered = tuple(rids)
        if not ordered:
            return []
        if self.probe is not None:
            self.probe.note(self.name, "delete_many")
        self.check_live_many(ordered)
        if len(set(ordered)) != len(ordered):
            raise StorageError(f"duplicate row ids in batch delete on {self.name!r}")
        dead = numpy.asarray(ordered, dtype=numpy.intp)
        vector = self._vector_positions
        columns = [
            col.array()[dead].tolist() if pos in vector else [col[rid] for rid in ordered]
            for pos, col in enumerate(self._columns)
        ]
        self._live.array()[dead] = False
        self._tombs.add_many(dead)
        self._live_count -= len(ordered)
        self._version += 1
        for obs in self._observers:
            obs.on_delete(ordered, columns)
        return columns

    def delete_rows(self, rows: RowSet) -> None:
        """Tombstone every row in ``rows`` (all must be live)."""
        self.delete_many(rows.rows)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def value(self, rid: int, column: str) -> Any:
        """One cell of a live row."""
        self.check_live_many((rid,))
        return self._columns[self.schema.index_of(column)][rid]

    def row(self, rid: int) -> tuple:
        """All values of a live row, in schema order."""
        self.check_live_many((rid,))
        return tuple(col[rid] for col in self._columns)

    def row_dict(self, rid: int) -> dict[str, Any]:
        """One live row as a ``{column: value}`` mapping."""
        return dict(zip(self.schema.names, self.row(rid)))

    def column_values(self, column: str, rows: RowSet | None = None) -> list[Any]:
        """The values of ``column`` for ``rows`` (default: all live rows)."""
        col = self._columns[self.schema.index_of(column)]
        if rows is None:
            return [col[rid] for rid in self.live_rows()]
        rids = list(rows)
        self.check_live_many(rids)
        return [col[rid] for rid in rids]

    def live_rows(self) -> Iterator[int]:
        """Row ids of live rows, ascending (insertion/time order): an
        iterator over :meth:`live_list`."""
        return iter(self.live_list())

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

    # ------------------------------------------------------------------
    # bulk decay primitives (array-backed columns only)
    # ------------------------------------------------------------------

    def column_array(self, column: str) -> Any:
        """The raw float64 view of a vector-backed column.

        The view covers the whole allocated row space (tombstoned slots
        hold stale values — mask with :meth:`live_mask`). Read only:
        cells are written through :meth:`write_rows`.
        """
        pos = self.schema.index_of(column)
        if pos not in self._vector_positions:
            raise StorageError(
                f"column {column!r} of {self.name!r} is not vector-backed"
            )
        return self._columns[pos].array()

    def freshness_array(self) -> Any:
        """The float64 view of the freshness column (length
        :attr:`allocated`; read only, like :meth:`column_array`)."""
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

        The one cell writer; values must already be floats (no per-cell
        coercion). A dead rid raises before anything is written.
        """
        if self.probe is not None:
            self.probe.note(self.name, "write_rows")
        self.check_live_many(rids)
        array = self.column_array(column)
        pos = self.schema.index_of(column)
        self._data_versions[pos] += 1
        array[numpy.asarray(rids, dtype=numpy.intp)] = values

    def live_runs(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Maximal contiguous runs of live rids within ``[lo, hi]``.

        Returned as inclusive ``(start, end)`` pairs in ascending
        order — the shape rot spots keep their membership in: the
        clamped range minus the tombstone runs.
        """
        lo = max(lo, 0)
        hi = min(hi, self._next_rid - 1)
        if lo > hi:
            return []
        return self._tombs.gaps(lo, hi)

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
        are cached per :meth:`data_token` (see :meth:`_view`).
        """
        pos = self.schema.index_of(column)
        dtype = self.schema.columns[pos].dtype
        if dtype not in _MASKABLE:
            return None
        if pos in self._vector_positions:
            return ColumnMaskData(self._columns[pos].array(), None, 0.0, False)
        is_int = dtype is DataType.INT
        return self._view(
            pos, "mask", lambda tail, prev: _mask_view(tail, prev, is_int)
        )

    def codes(self, column: str) -> ColumnCodes | None:
        """Dictionary codes of a STR column (None for any other dtype),
        cached per :meth:`data_token` like :meth:`mask_data`."""
        pos = self.schema.index_of(column)
        if self.schema.columns[pos].dtype is not DataType.STR:
            return None
        return self._view(pos, "codes", _codes_view)

    def _view(self, pos: int, kind: str, extend: Callable[[list, Any], Any]) -> Any:
        """The cached ``kind`` view of list column ``pos``, kept current.

        ``extend(tail, prev)`` builds the view of ``prev``'s rows plus
        the cells ``tail`` (``prev`` None: from nothing). When only
        appends happened since the cached view — same generation and
        data version, more rows allocated — only the new tail is read;
        compaction and cell writes rebuild the whole column. A view
        that is None (an INT past 2**53) stays None as the column grows.
        """
        # the data token, split: what an append leaves alone, and what it moves
        stamp, allocated = (self._generation, self._data_versions[pos]), self._next_rid
        col = self._columns[pos]
        cached = self._views.get((pos, kind))
        if cached is None or cached[0] != stamp:
            view = extend(col, None)
        elif cached[1] == allocated:
            return cached[2]
        else:
            view = None if cached[2] is None else extend(col[cached[1]:], cached[2])
        self._views[(pos, kind)] = (stamp, allocated, view)
        return view

    # ------------------------------------------------------------------
    # neighbour navigation (EGI's spread axis)
    # ------------------------------------------------------------------

    def neighbours(self, los: Any, his: Any) -> tuple[Any, Any]:
        """The nearest live rid before each ``los[i]`` and after each
        ``his[i]``, as two int64 arrays (``-1`` where there is none).

        Every ``lo``/``hi`` must be a rid in ``[0, allocated)``, live or
        tombstoned — EGI asks for the neighbours of rows that may have
        just been evicted. A live ``lo - 1``/``hi + 1`` is the answer; a
        dead one lies in a tombstone run, and the row one past that
        run's edge is live (or off the table): one ``searchsorted`` per
        side, whatever the number of tombstones crossed.
        """
        prev = numpy.asarray(los, dtype=numpy.int64) - 1
        after = numpy.asarray(his, dtype=numpy.int64) + 1
        starts, ends = self._tombs.bounds()
        if starts.size:
            # run -1 reads the last run; the run >= 0 test masks it
            run = starts.searchsorted(prev, "right") - 1
            dead = (run >= 0) & (prev <= ends[run])
            prev = numpy.where(dead, starts[run] - 1, prev)
            run = starts.searchsorted(after, "right") - 1
            dead = (run >= 0) & (after <= ends[run])
            after = numpy.where(dead, ends[run] + 1, after)
        return prev, numpy.where(after < self._next_rid, after, -1)

    def prev_live(self, rid: int) -> int | None:
        """The nearest live row id strictly before ``rid``, or None:
        :meth:`neighbours` of one span."""
        if not 0 <= rid < self._next_rid:
            raise StorageError(f"row id {rid} out of range in {self.name!r}")
        prev = int(self.neighbours((rid,), (rid,))[0][0])
        return None if prev < 0 else prev

    def next_live(self, rid: int) -> int | None:
        """The nearest live row id strictly after ``rid``, or None."""
        if not 0 <= rid < self._next_rid:
            raise StorageError(f"row id {rid} out of range in {self.name!r}")
        after = int(self.neighbours((rid,), (rid,))[1][0])
        return None if after < 0 else after

    # ------------------------------------------------------------------
    # dense copies: compaction and frozen read views
    # ------------------------------------------------------------------

    def _adopt_live_rows(self, source: "Table") -> list[int]:
        """Make this table's row space a dense copy of ``source``'s live rows.

        The one survivor gather: every column is copied at the live
        rids (new arrays and lists, never views) and liveness becomes
        all-true. ``source`` may be ``self`` (compaction). Returns the
        survivors, ascending; a survivor's new rid is its position.
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
        self._tombs.clear()
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
        self._views.clear()
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
