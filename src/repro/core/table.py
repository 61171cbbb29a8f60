"""The decaying relation ``R(t, f, A1..An)``.

A :class:`DecayingTable` wraps a storage :class:`~repro.storage.table.Table`
whose first two columns are the paper's ``t`` (insertion time, stamped
from the decay clock) and ``f`` (freshness, initially 1.0). Everything
a fungus needs is exposed here: ages, freshness mutation, neighbour
navigation along the insertion axis, uniform sampling of live rows,
and eviction with event publication.

There is one way out of R: :meth:`DecayingTable.evict` with the cause
of the departure (``decay``, ``consume``, ``external``, ``truncate``,
...). It deletes on storage, takes the rows out of the exhausted and
pinned sets and publishes one :class:`TupleEvictedBatch` carrying that
cause — the table does not observe its own storage, so no label has to
travel from the caller to an observer callback. :meth:`compact` remaps
the two sets and publishes :class:`TableCompacted` itself.

Freshness reaching 0 does **not** evict by itself — the row joins the
*exhausted* set and the :class:`~repro.core.policy.DecayPolicy` decides
when exhausted rows actually leave (eager vs lazy ablation, F6).
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from numbers import Real
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.clock import DecayClock
from repro.core.events import (
    EventBus,
    TableCompacted,
    TupleDecayedBatch,
    TupleEvictedBatch,
    TupleInfectedBatch,
    TupleInsertedBatch,
)
from repro.core.freshness import (
    FRESH_THRESHOLD,
    ROTTEN_THRESHOLD,
    FreshnessBand,
)
from repro.errors import DecayError
from repro.obs.tracing import Tracer
from repro.storage.rowset import RowSet
from repro.storage.schema import ColumnDef, DataType, Schema
from repro.storage.table import Table
from repro.storage.vector import numpy


@dataclass(frozen=True)
class BatchOutcome:
    """Accounting totals of one freshness write.

    ``processed`` counts every row the write touched (pinned no-ops
    included), ``changed`` the rows whose freshness actually moved,
    ``removed`` the total freshness delta (negative when the write
    raised freshness), ``newly_exhausted`` the rows that crossed
    f>0 → f==0. A scalar mutator is the write of one row.
    """

    processed: int = 0
    changed: int = 0
    removed: float = 0.0
    newly_exhausted: int = 0


_EMPTY_OUTCOME = BatchOutcome()

#: batches smaller than this run the scalar kernel — per-ufunc dispatch
#: overhead beats the python loop there. Both kernels produce
#: bit-identical freshness, exhausted sets and events, so this is purely
#: a latency heuristic (tests pin it to 0 to force the vector kernel, or
#: above the batch size to force the scalar reference).
_SMALL_BATCH = 32


def _check_number(value: Any, what: str) -> None:
    """Raise :class:`DecayError` unless ``value`` is a real, non-NaN
    number. A bool is not one; ``±inf`` is, and clamps."""
    if isinstance(value, bool) or not isinstance(value, Real) or value != value:
        raise DecayError(f"{what} must be a number, got {value!r}")


def _check_values(values: Any) -> None:
    """The input check of a freshness write: :func:`_check_number` on
    every value, one NaN test for a numeric array."""
    if isinstance(values, numpy.ndarray) and values.dtype.kind in "iuf":
        if values.dtype.kind != "f" or not numpy.isnan(values).any():
            return
    for value in values:
        if type(value) is not float or value != value:
            _check_number(value, "freshness")


class DecayingTable:
    """``R(t, f, A1..An)`` — a relation subject to the natural laws."""

    def __init__(
        self,
        name: str,
        attributes: Schema,
        clock: DecayClock,
        bus: EventBus | None = None,
        time_column: str = "t",
        freshness_column: str = "f",
    ) -> None:
        if time_column in attributes or freshness_column in attributes:
            raise DecayError(
                f"attribute schema may not contain the reserved columns "
                f"{time_column!r}/{freshness_column!r}"
            )
        self.name = name
        self.clock = clock
        self.bus = bus if bus is not None else EventBus()
        self.time_column = time_column
        self.freshness_column = freshness_column
        self.attributes = attributes
        full = [
            ColumnDef(time_column, DataType.TIMESTAMP),
            ColumnDef(freshness_column, DataType.FLOAT),
            *attributes.columns,
        ]
        # t rides on a float64 array, and so does f, as every
        # freshness column does
        self.storage = Table(
            Schema(full),
            name=name,
            vector_columns=(time_column,),
            freshness_column=freshness_column,
        )
        self._t_pos = 0
        self._f_pos = 1
        self._exhausted: set[int] = set()
        self._pinned: set[int] = set()
        #: replaced by FungusDB's tracer property so tables created at
        #: any point — before or after a checkpoint restore — share it
        self.tracer = Tracer(max_finished=0)

    # ------------------------------------------------------------------
    # extent
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """The extent of R: live rows (exhausted-but-unevicted included)."""
        return len(self.storage)

    def __repr__(self) -> str:
        return f"DecayingTable({self.name!r}, extent={len(self)}, exhausted={len(self._exhausted)})"

    @property
    def extent(self) -> int:
        """Live row count — the quantity both laws shrink."""
        return len(self.storage)

    @property
    def exhausted(self) -> RowSet:
        """Rows whose freshness hit 0, awaiting eviction by the policy."""
        return RowSet.from_sorted(tuple(sorted(self._exhausted)))

    @property
    def exhausted_count(self) -> int:
        """Size of the exhausted set (no sorted :class:`RowSet` built)."""
        return len(self._exhausted)

    def live_rows(self) -> Iterator[int]:
        """Live row ids in insertion/time order."""
        return self.storage.live_rows()

    def is_live(self, rid: int) -> bool:
        """True when ``rid`` is still part of R's extent."""
        return self.storage.is_live(rid)

    # ------------------------------------------------------------------
    # insertion (freshness 1.0, timestamped now)
    # ------------------------------------------------------------------

    def insert(self, attrs: Mapping[str, Any]) -> int:
        """Insert one tuple with ``t = clock.now`` and ``f = 1.0``."""
        return self._admit(self._stamped((attrs,)))[0]

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> RowSet:
        """Insert many tuples at the current tick, all or none.

        A row that fails coercion raises before anything is written,
        indexed or published.
        """
        return RowSet.from_sorted(self._admit(self._stamped(rows)))

    def restore_many(self, rows: Iterable[Mapping[str, Any]]) -> RowSet:
        """Re-insert full rows (t and f included) from a checkpoint.

        Unlike :meth:`insert_many`, this preserves the recorded
        insertion time and freshness instead of stamping ``now``/1.0;
        exhausted rows (f == 0) rejoin the exhausted set.
        """
        return RowSet.from_sorted(
            self._admit(self.storage.schema.coerce_columns(rows))
        )

    def _stamped(self, rows: Iterable[Mapping[str, Any]]) -> list[list[Any]]:
        """Attribute rows as full storage columns: ``t``/``f`` are fills."""
        columns = self.attributes.coerce_columns(rows)
        count = len(columns[0])
        return [[self.clock.now] * count, [1.0] * count, *columns]

    def _admit(self, columns: list[list[Any]]) -> tuple[int, ...]:
        """The one insertion path: append the (coerced) batch, book its
        exhausted rows, publish a single event."""
        rids = self.storage.append_columns(columns)
        if rids:
            freshness = columns[self._f_pos]
            if freshness.count(1.0) != len(rids):  # never on an insert
                self._exhausted.update(
                    rid for rid, f in zip(rids, freshness) if f <= 0.0
                )
            self.bus.publish(
                TupleInsertedBatch(self.name, self.clock.now, rids[0], rids[-1] + 1)
            )
        return rids

    # ------------------------------------------------------------------
    # freshness access and mutation
    # ------------------------------------------------------------------

    def freshness(self, rid: int) -> float:
        """Current freshness of a live row."""
        return self.storage.row(rid)[self._f_pos]

    def inserted_at(self, rid: int) -> float:
        """Insertion timestamp of a live row."""
        return self.storage.row(rid)[self._t_pos]

    def attributes_of(self, rid: int) -> dict[str, Any]:
        """The A1..An attribute values of a live row."""
        values = self.storage.row(rid)
        return dict(zip(self.attributes.names, values[2:]))

    def row_dict(self, rid: int) -> dict[str, Any]:
        """Full row (t, f, attributes) of a live row."""
        return self.storage.row_dict(rid)

    def mark_infected_many(
        self,
        rids: Sequence[int],
        fungus: str,
        origins: Sequence[str],
        sources: Sequence[int | None],
    ) -> None:
        """Publish one infection event for ``rids`` (fungi call this
        once per cycle with everything they seeded or spread onto).

        ``origins[i]`` and ``sources[i]`` attribute ``rids[i]``: a
        ``"seed"`` landed there directly, a ``"spread"`` grew in from
        neighbour row ``sources[i]`` — the edges death provenance
        chains back to a seed. The batch keeps the given order.
        """
        count = len(rids)
        if count:
            self.bus.publish_lazy(
                TupleInfectedBatch,
                lambda: TupleInfectedBatch(
                    self.name,
                    self.clock.now,
                    tuple(rids),
                    tuple(origins),
                    tuple(sources),
                    fungus,
                ),
                count,
            )

    def mark_infected(
        self,
        rid: int,
        fungus: str,
        origin: str = "seed",
        source: int | None = None,
    ) -> None:
        """:meth:`mark_infected_many` of one row."""
        self.mark_infected_many((rid,), fungus, (origin,), (source,))

    def pin(self, rid: int) -> None:
        """Make a row immune to decay (it can still be consumed/evicted).

        This is the "inspect them once before removal" escape hatch:
        data the owner is actively taking care of doesn't rot.
        """
        self.storage.check_live_many((rid,))
        # a plain int, so ``pinned`` can skip RowSet's per-rid check
        self._pinned.add(int(rid))

    def unpin(self, rid: int) -> None:
        """Remove decay immunity from a row (no-op if not pinned)."""
        self._pinned.discard(rid)

    def is_pinned(self, rid: int) -> bool:
        """True when the row is immune to decay."""
        return rid in self._pinned

    @property
    def pinned(self) -> RowSet:
        """All currently pinned rows."""
        return RowSet.from_sorted(tuple(sorted(self._pinned)))

    @property
    def pinned_count(self) -> int:
        """Size of the pinned set (no sorted :class:`RowSet` built)."""
        return len(self._pinned)

    def set_freshness(self, rid: int, value: float, fungus: str = "manual") -> float:
        """:meth:`set_freshness_many` of one row; returns its new freshness."""
        self.set_freshness_many((rid,), (value,), fungus)
        return self.freshness(rid)

    def decay(self, rid: int, amount: float, fungus: str) -> float:
        """:meth:`decay_many` of one row; returns its new freshness."""
        self.decay_many((rid,), amount, fungus)
        return self.freshness(rid)

    def scale_freshness(self, rid: int, factor: float, fungus: str) -> float:
        """:meth:`scale_many` of one row; returns its new freshness."""
        self.scale_many((rid,), factor, fungus)
        return self.freshness(rid)

    def freshness_values(self) -> list[float]:
        """Freshness of every live row, in insertion order."""
        return self.storage.column_values(self.freshness_column)

    def band_counts(self) -> dict[FreshnessBand, int]:
        """Live rows per freshness band, read off the freshness array.

        The one definition of band occupancy (gauges and health reports
        both ask here). Classifies exactly as a
        :func:`~repro.core.freshness.band_of` call per live row would:
        its clamp into [0, 1] cannot move a value across a threshold,
        and a NaN fails both comparisons and lands in ROTTEN there too.
        """
        live = self.storage.freshness_array()[self.storage.live_mask()]
        fresh = int(numpy.count_nonzero(live >= FRESH_THRESHOLD))
        edible = int(numpy.count_nonzero(live >= ROTTEN_THRESHOLD))
        return {
            FreshnessBand.FRESH: fresh,
            FreshnessBand.STALE: edible - fresh,
            FreshnessBand.ROTTEN: int(live.size) - edible,
        }

    # ------------------------------------------------------------------
    # batch freshness mutation (the vectorized decay kernels)
    # ------------------------------------------------------------------

    def freshness_of_many(self, rids: Sequence[int]) -> Any:
        """Freshness values aligned with ``rids``, as an array."""
        return self.storage.read_rows(self.freshness_column, rids)

    def ages_of(self, rids: Sequence[int]) -> Any:
        """Ages on the decay clock aligned with ``rids``, as an array."""
        return self.clock.now - self.storage.read_rows(self.time_column, rids)

    def live_positive_rows(self) -> Any:
        """Live row ids with freshness > 0, ascending, as an array (test
        emptiness with ``len``, not truthiness)."""
        mask = self.storage.live_mask() & (self.storage.freshness_array() > 0.0)
        return numpy.flatnonzero(mask)

    def set_freshness_many(
        self, rids: Sequence[int], values: Sequence[float], fungus: str = "manual"
    ) -> BatchOutcome:
        """Set the freshness of ``rids`` (live, ascending) to ``values``.

        The one freshness write, which :meth:`decay_many`,
        :meth:`scale_many` and the scalar mutators are forms of. Every
        value must be a number (:func:`_check_number`); it is clamped
        into [0, 1]. Raising freshness is allowed — the access-refresh
        extension uses it — and takes a row out of the exhausted set;
        lowering a *pinned* row's freshness is silently skipped. A bad
        value or a dead rid raises before anything is written. Publishes
        at most one :class:`TupleDecayedBatch`, carrying only the rows
        whose freshness changed.
        """
        _check_values(values)
        return self._write(rids, None, values, fungus)

    def decay_many(self, rids: Sequence[int], amount: float, fungus: str) -> BatchOutcome:
        """Lower every row's freshness by ``amount`` (a write of ``f - amount``)."""
        _check_number(amount, "decay amount")
        if amount < 0:
            raise DecayError(f"decay amount must be non-negative, got {amount}")
        return self._write(rids, operator.sub, amount, fungus)

    def scale_many(self, rids: Sequence[int], factor: float, fungus: str) -> BatchOutcome:
        """Multiply every row's freshness by ``factor`` in [0, 1]."""
        _check_number(factor, "scale factor")
        if not (0.0 <= factor <= 1.0):
            raise DecayError(f"scale factor must be in [0,1], got {factor}")
        return self._write(rids, operator.mul, factor, fungus)

    def _write(
        self,
        rids: Sequence[int],
        combine: Callable[[Any, Any], Any] | None,
        operand: Any,
        fungus: str,
    ) -> BatchOutcome:
        """Route a checked write to a kernel by batch size.

        The target of a row is ``combine(old, operand)``, or ``operand``
        itself (one value per row) when ``combine`` is None. The vector
        kernel and the small-batch scalar kernel perform the same
        IEEE-754 operations, so the written freshness is bit-identical.
        """
        count = len(rids)
        if count == 0:
            return _EMPTY_OUTCOME
        if count >= _SMALL_BATCH:
            rid_arr = numpy.asarray(rids, dtype=numpy.intp)
            old = self.storage.read_rows(self.freshness_column, rid_arr)
            if combine is None:
                target = numpy.asarray(operand, dtype=numpy.float64)
            else:
                target = combine(old, operand)
            return self._apply_batch_vec(rid_arr, old, target, fungus)
        rid_list = [int(r) for r in rids]
        # tolist round-trips float64 bits exactly: the python arithmetic
        # below matches the vector kernel's
        old_list = self.storage.read_rows(self.freshness_column, rid_list).tolist()
        if combine is None:
            targets = [float(v) for v in operand]
        else:
            targets = [combine(o, operand) for o in old_list]
        return self._apply_batch_py(rid_list, old_list, targets, fungus)

    def _apply_batch_vec(
        self, rid_arr: Any, old: Any, target: Any, fungus: str
    ) -> BatchOutcome:
        """Vector kernel of :meth:`_write`.

        Clamps into [0, 1]; a pinned row whose freshness would drop
        keeps its value; stores through ``Table.write_rows``; the
        exhausted set tracks the stored value; only changed rows are
        evented.
        """
        new = numpy.minimum(numpy.maximum(target, 0.0), 1.0)
        if self._pinned:
            pinned = numpy.isin(
                rid_arr, numpy.fromiter(self._pinned, dtype=numpy.intp)
            )
            skip = pinned & (new < old)
            if skip.any():
                new = numpy.where(skip, old, new)
        self.storage.write_rows(self.freshness_column, rid_arr, new)
        dead = new <= 0.0
        if dead.any():
            self._exhausted.update(rid_arr[dead].tolist())
        if self._exhausted:
            self._exhausted.difference_update(rid_arr[~dead].tolist())
        changed = new != old
        changed_count = int(numpy.count_nonzero(changed))
        if changed_count:
            self.bus.publish_lazy(
                TupleDecayedBatch,
                lambda: TupleDecayedBatch(
                    self.name,
                    self.clock.now,
                    tuple(rid_arr[changed].tolist()),
                    tuple(old[changed].tolist()),
                    tuple(new[changed].tolist()),
                    fungus,
                ),
                changed_count,
            )
        return BatchOutcome(
            processed=int(rid_arr.size),
            changed=changed_count,
            removed=float(numpy.sum(old - new)),
            newly_exhausted=int(numpy.count_nonzero((old > 0.0) & dead)),
        )

    def _apply_batch_py(
        self, rids: list[int], old: Sequence[float], targets: Sequence[float], fungus: str
    ) -> BatchOutcome:
        """Scalar twin of :meth:`_apply_batch_vec` for batches under
        ``_SMALL_BATCH`` rows, and the reference the equivalence suite
        and ``benchmarks/bench_kernels.py`` hold the vector kernel to.

        Performs the identical arithmetic per row so freshness columns,
        exhausted sets and event payloads match the vector kernel
        bit-for-bit.
        """
        pinned = self._pinned
        written: list[float] = []
        changed_rids: list[int] = []
        changed_old: list[float] = []
        changed_new: list[float] = []
        removed = 0.0
        newly_exhausted = 0
        for rid, o, target in zip(rids, old, targets):
            n = min(max(target, 0.0), 1.0)
            if n < o and rid in pinned:
                n = o
            written.append(n)
            if n != o:
                changed_rids.append(rid)
                changed_old.append(o)
                changed_new.append(n)
            removed += o - n
            if o > 0.0 and n <= 0.0:
                newly_exhausted += 1
        self.storage.write_rows(self.freshness_column, rids, written)
        exhausted = self._exhausted
        for rid, n in zip(rids, written):
            if n <= 0.0:
                exhausted.add(rid)
            else:
                exhausted.discard(rid)
        if changed_rids:
            self.bus.publish_lazy(
                TupleDecayedBatch,
                lambda: TupleDecayedBatch(
                    self.name,
                    self.clock.now,
                    tuple(changed_rids),
                    tuple(changed_old),
                    tuple(changed_new),
                    fungus,
                ),
                len(changed_rids),
            )
        return BatchOutcome(
            processed=len(rids),
            changed=len(changed_rids),
            removed=removed,
            newly_exhausted=newly_exhausted,
        )

    # ------------------------------------------------------------------
    # navigation and sampling (what fungi grow along)
    # ------------------------------------------------------------------

    def sample_live(self, rng: random.Random, k: int = 1) -> list[int]:
        """Up to ``k`` live row ids sampled uniformly (without replacement).

        Rejection-samples over the allocated id space while tombstones
        are sparse, falling back to materialising the live set.
        """
        n = self.storage.allocated
        live = len(self.storage)
        if live == 0 or k <= 0:
            return []
        k = min(k, live)
        if self.storage.tombstones * 2 < n:
            alive = self.storage.live_mask()
            picked: set[int] = set()
            attempts = 0
            limit = 20 * k + 100
            while len(picked) < k and attempts < limit:
                rid = rng.randrange(n)
                attempts += 1
                if alive[rid]:
                    picked.add(rid)
            if len(picked) == k:
                return sorted(picked)
        # the live list is cached per liveness version on the storage
        # table, so tombstone-heavy phases don't rebuild it every call
        return sorted(rng.sample(self.storage.live_list(), k))

    def oldest_live(self) -> int | None:
        """The live row with the smallest insertion time (lowest rid)."""
        return next(iter(self.storage.live_rows()), None)

    # ------------------------------------------------------------------
    # eviction (policies and Law 2)
    # ------------------------------------------------------------------

    def evict(self, rows: RowSet, cause: str) -> None:
        """Remove ``rows`` from R in one storage delete: the one exit.

        Every departure comes through here with its ``cause`` — policy
        eviction (``decay``), Law 2 (``consume``), SQL ``DELETE``
        (``external``), ``drop_table`` (``truncate``). The storage
        delete validates the whole batch first, so a dead or duplicate
        rid raises and changes nothing. Then the rows leave the
        exhausted and pinned sets, and one :class:`TupleEvictedBatch`
        carries the cause and the rows' last values by column (the ones
        the delete gathered), so distillers cook them without a second
        read.
        """
        rids = rows.rows
        if not rids:
            return
        columns = self.storage.delete_many(rids)
        self._exhausted.difference_update(rids)
        self._pinned.difference_update(rids)
        self.bus.publish(
            TupleEvictedBatch(self.name, self.clock.now, rids, cause, tuple(columns))
        )

    def compact(self) -> dict[int, int]:
        """Reclaim tombstones; remaps the exhausted and pinned sets through
        the storage remap and publishes :class:`TableCompacted` (nothing
        when there was no tombstone to reclaim)."""
        tombstones = self.storage.tombstones
        with self.tracer.span(
            "table.compact", table=self.name, tombstones=tombstones
        ) as span:
            remap = self.storage.compact()
            span.set(remapped=len(remap))
            if tombstones:
                self._exhausted = {remap[rid] for rid in self._exhausted if rid in remap}
                self._pinned = {remap[rid] for rid in self._pinned if rid in remap}
                self.bus.publish(
                    TableCompacted(
                        self.name, self.clock.now, remap=tuple(sorted(remap.items()))
                    )
                )
        return remap

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """All live rows as dicts (small tables / tests)."""
        return self.storage.to_rows()

    def rowset(self) -> RowSet:
        """All live row ids."""
        return self.storage.live_rowset()
