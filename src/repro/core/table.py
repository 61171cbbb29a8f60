"""The decaying relation ``R(t, f, A1..An)``.

A :class:`DecayingTable` wraps a storage :class:`~repro.storage.table.Table`
whose first two columns are the paper's ``t`` (insertion time, stamped
from the decay clock) and ``f`` (freshness, initially 1.0). Everything
a fungus needs is exposed here: ages, freshness mutation, neighbour
navigation along the insertion axis, uniform sampling of live rows,
and eviction with event publication.

Freshness reaching 0 does **not** evict by itself — the row joins the
*exhausted* set and the :class:`~repro.core.policy.DecayPolicy` decides
when exhausted rows actually leave (eager vs lazy ablation, F6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.core.clock import DecayClock
from repro.core.events import (
    EventBus,
    TableCompacted,
    TupleDecayed,
    TupleDecayedBatch,
    TupleEvicted,
    TupleInfected,
    TupleInsertedBatch,
)
from repro.core.freshness import (
    FRESH_THRESHOLD,
    ROTTEN_THRESHOLD,
    FreshnessBand,
    clamp_freshness,
)
from repro.errors import DecayError
from repro.obs.tracing import NULL_TRACER
from repro.storage.rowset import RowSet
from repro.storage.schema import ColumnDef, DataType, Schema
from repro.storage.table import Table
from repro.storage.vector import numpy


@dataclass(frozen=True)
class BatchOutcome:
    """Accounting totals of one batch freshness pass.

    ``processed`` counts every row the pass touched (pinned no-ops
    included — matching what a scalar loop of ``_decay`` calls would
    report), ``changed`` the rows whose freshness actually moved,
    ``removed`` the total freshness delta (negative when a pass raised
    freshness), ``newly_exhausted`` the rows that crossed f>0 → f==0.
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
        # Deletions may be issued by the query engine (Law 2) directly
        # against the storage table; observing our own storage keeps the
        # decay bookkeeping consistent no matter who deletes.
        self._pending_reason = "external"
        #: set by FungusDB's tracer property so tables created at any
        #: point — before or after a checkpoint restore — record spans
        self.tracer = NULL_TRACER
        self.storage.add_observer(self)

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
        return RowSet(self._exhausted)

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

    def age(self, rid: int) -> float:
        """Age of a live row on the decay clock."""
        return self.clock.now - self.inserted_at(rid)

    def attributes_of(self, rid: int) -> dict[str, Any]:
        """The A1..An attribute values of a live row."""
        values = self.storage.row(rid)
        return dict(zip(self.attributes.names, values[2:]))

    def row_dict(self, rid: int) -> dict[str, Any]:
        """Full row (t, f, attributes) of a live row."""
        return self.storage.row_dict(rid)

    def mark_infected(
        self,
        rid: int,
        fungus: str,
        origin: str = "seed",
        source: int | None = None,
    ) -> None:
        """Publish an infection event (fungi call this when seeding/spreading).

        ``origin`` and ``source`` attribute the infection: a ``"seed"``
        landed here directly, a ``"spread"`` grew in from neighbour row
        ``source`` — the edges death provenance chains back to a seed.
        """
        self.bus.publish_lazy(
            TupleInfected,
            lambda: TupleInfected(self.name, self.clock.now, rid, fungus, origin, source),
        )

    def pin(self, rid: int) -> None:
        """Make a row immune to decay (it can still be consumed/evicted).

        This is the "inspect them once before removal" escape hatch:
        data the owner is actively taking care of doesn't rot.
        """
        self.storage._check_live(rid)  # noqa: SLF001 — deliberate liveness check
        self._pinned.add(rid)

    def unpin(self, rid: int) -> None:
        """Remove decay immunity from a row (no-op if not pinned)."""
        self._pinned.discard(rid)

    def is_pinned(self, rid: int) -> bool:
        """True when the row is immune to decay."""
        return rid in self._pinned

    @property
    def pinned(self) -> RowSet:
        """All currently pinned rows."""
        return RowSet(self._pinned)

    @property
    def pinned_count(self) -> int:
        """Size of the pinned set (no sorted :class:`RowSet` built)."""
        return len(self._pinned)

    def set_freshness(self, rid: int, value: float, fungus: str = "manual") -> float:
        """Set a row's freshness (clamped); returns the new value.

        Raising freshness is allowed — the access-refresh extension
        uses it — and removes the row from the exhausted set. Lowering
        the freshness of a *pinned* row is silently ignored.
        """
        old = self.freshness(rid)
        new = clamp_freshness(value)
        if rid in self._pinned and new < old:
            return old
        if new != old:
            self.storage.update(rid, self.freshness_column, new)
            self.bus.publish(TupleDecayed(self.name, self.clock.now, rid, old, new, fungus))
        if new <= 0.0:
            self._exhausted.add(rid)
        else:
            self._exhausted.discard(rid)
        return new

    def decay(self, rid: int, amount: float, fungus: str) -> float:
        """Lower a row's freshness by ``amount``; returns the new value."""
        if amount < 0:
            raise DecayError(f"decay amount must be non-negative, got {amount}")
        return self.set_freshness(rid, self.freshness(rid) - amount, fungus)

    def scale_freshness(self, rid: int, factor: float, fungus: str) -> float:
        """Multiply a row's freshness by ``factor`` in [0, 1]."""
        if not (0.0 <= factor <= 1.0):
            raise DecayError(f"scale factor must be in [0,1], got {factor}")
        return self.set_freshness(rid, self.freshness(rid) * factor, fungus)

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

    def positive_rows_in(self, lo: int, hi: int) -> Any:
        """Live rows with freshness > 0 inside ``[lo, hi]``, ascending.

        Returns an array for wide spans and a plain list for tiny ones —
        test emptiness with ``len``, not truthiness, and don't rely on
        the container type."""
        hi = min(hi, self.storage.allocated - 1)
        lo = max(lo, 0)
        if lo > hi:
            return []
        live = self.storage.live_mask()
        freshness = self.storage.freshness_array()
        if hi - lo < _SMALL_BATCH:
            # a handful of ufunc dispatches costs more than scanning
            # a tiny span by direct element access
            return [
                rid for rid in range(lo, hi + 1) if live[rid] and freshness[rid] > 0.0
            ]
        segment = live[lo : hi + 1] & (freshness[lo : hi + 1] > 0.0)
        return numpy.flatnonzero(segment) + lo

    def set_freshness_many(
        self, rids: Sequence[int], values: Sequence[float], fungus: str = "manual"
    ) -> BatchOutcome:
        """Batch :meth:`set_freshness`: clamp, honour pins, maintain the
        exhausted set and publish one coalesced event in a single pass.

        ``rids`` must be live rows in ascending order; ``values`` aligns
        with it. Publishes at most one :class:`TupleDecayedBatch`
        carrying only the rows whose freshness actually changed, in rid
        order — collectors expand it back into per-tuple provenance.
        The vector kernel and the small-batch scalar kernel perform the
        same IEEE-754 operations, so the resulting freshness values are
        bit-identical.
        """
        count = len(rids)
        if count == 0:
            return _EMPTY_OUTCOME
        if count >= _SMALL_BATCH:
            rid_arr = numpy.asarray(rids, dtype=numpy.intp)
            self.storage.check_live_many(rid_arr)
            old = self.storage.freshness_array()[rid_arr]
            target = numpy.asarray(values, dtype=numpy.float64)
            return self._apply_batch_vec(rid_arr, old, target, fungus)
        old = self._freshness_list(rids)
        return self._apply_batch_py(
            [int(r) for r in rids], old, [float(v) for v in values], fungus
        )

    def decay_many(self, rids: Sequence[int], amount: float, fungus: str) -> BatchOutcome:
        """Batch :meth:`decay`: lower every row's freshness by ``amount``."""
        if amount < 0:
            raise DecayError(f"decay amount must be non-negative, got {amount}")
        count = len(rids)
        if count == 0:
            return _EMPTY_OUTCOME
        if count >= _SMALL_BATCH:
            rid_arr = numpy.asarray(rids, dtype=numpy.intp)
            self.storage.check_live_many(rid_arr)
            old = self.storage.freshness_array()[rid_arr]
            return self._apply_batch_vec(rid_arr, old, old - amount, fungus)
        old = self._freshness_list(rids)
        return self._apply_batch_py(
            [int(r) for r in rids], old, [o - amount for o in old], fungus
        )

    def scale_many(self, rids: Sequence[int], factor: float, fungus: str) -> BatchOutcome:
        """Batch :meth:`scale_freshness`: multiply freshness by ``factor``."""
        if not (0.0 <= factor <= 1.0):
            raise DecayError(f"scale factor must be in [0,1], got {factor}")
        count = len(rids)
        if count == 0:
            return _EMPTY_OUTCOME
        if count >= _SMALL_BATCH:
            rid_arr = numpy.asarray(rids, dtype=numpy.intp)
            self.storage.check_live_many(rid_arr)
            old = self.storage.freshness_array()[rid_arr]
            return self._apply_batch_vec(rid_arr, old, old * factor, fungus)
        old = self._freshness_list(rids)
        return self._apply_batch_py(
            [int(r) for r in rids], old, [o * factor for o in old], fungus
        )

    def _freshness_list(self, rids: Sequence[int]) -> list[float]:
        """Current freshness of ``rids`` as plain python floats.

        Feeds the scalar batch kernel; ``tolist`` round-trips float64
        bits exactly, so the arithmetic downstream is unchanged.
        """
        return self.storage.read_rows(self.freshness_column, rids).tolist()

    def _apply_batch_vec(
        self, rid_arr: Any, old: Any, target: Any, fungus: str
    ) -> BatchOutcome:
        """Vector kernel shared by the batch mutators.

        Mirrors the scalar :meth:`set_freshness` semantics exactly:
        clamp into [0, 1]; a pinned row whose freshness would drop is
        left untouched (no exhausted-set update either); the exhausted
        set tracks the post-write value; only changed rows are evented.
        """
        new = numpy.minimum(numpy.maximum(target, 0.0), 1.0)
        if self._pinned:
            pinned = numpy.isin(
                rid_arr, numpy.fromiter(self._pinned, dtype=numpy.intp)
            )
            skip = pinned & (new < old)
            if skip.any():
                new = numpy.where(skip, old, new)
        self.storage.freshness_array()[rid_arr] = new
        # the raw-array write bypasses write_rows, so the rot dirty-map
        # (span pruning's soundness superset) must be told directly
        self.storage.mark_rot(rid_arr)
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
        exhausted = self._exhausted
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
            if n <= 0.0:
                exhausted.add(rid)
            else:
                exhausted.discard(rid)
            if n != o:
                changed_rids.append(rid)
                changed_old.append(o)
                changed_new.append(n)
            removed += o - n
            if o > 0.0 and n <= 0.0:
                newly_exhausted += 1
        self.storage.write_rows(self.freshness_column, rids, written)
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
            picked: set[int] = set()
            attempts = 0
            limit = 20 * k + 100
            while len(picked) < k and attempts < limit:
                rid = rng.randrange(n)
                attempts += 1
                if self.storage.is_live(rid):
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

    def evict(
        self,
        rows: RowSet,
        reason: str,
        collect_values: bool | None = None,
    ) -> list[dict[str, Any]]:
        """Remove ``rows`` from R; returns their last values as dicts.

        Publishes one :class:`TupleEvicted` per row (with values, so
        distillers can cook them without a second read). The *returned*
        dicts are built lazily: ``collect_values=None`` materialises
        them only when the bus has :class:`TupleEvicted` subscribers
        (someone is watching evictions at all); hot paths that ignore
        the return value pass ``False`` explicitly, callers that need
        the dicts pass ``True``.
        """
        rids = list(rows)
        if collect_values is None:
            collect_values = self.bus.has_subscribers(TupleEvicted)
        evicted: list[dict[str, Any]] = []
        if collect_values:
            names = self.storage.schema.names
            evicted = [dict(zip(names, self.storage.row(rid))) for rid in rids]
        self._pending_reason = reason
        try:
            self.storage.delete_many(rids)
        finally:
            self._pending_reason = "external"
        return evicted

    def set_eviction_reason(self, reason: str) -> None:
        """Label upcoming storage-level deletions (Law 2 consume path).

        The query engine deletes consumed rows directly on the storage
        table; the consume hook calls this first so the resulting
        :class:`TupleEvicted` events carry reason ``"consume"``. The
        label stays until set again — :class:`~repro.core.db.FungusDB`
        resets it to ``"external"`` before every query.
        """
        self._pending_reason = reason

    def compact(self) -> dict[int, int]:
        """Reclaim tombstones; remaps bookkeeping via the storage remap."""
        with self.tracer.span(
            "table.compact", table=self.name, tombstones=self.storage.tombstones
        ) as span:
            remap = self.storage.compact()
            span.set(remapped=len(remap))
        return remap

    # -- TableObserver protocol (self-observation of storage) ----------

    def on_append_many(self, rids: Sequence[int], columns: Sequence[list]) -> None:
        """Storage observer hook; insertion events are published by _admit()."""

    def on_delete(self, rid: int, values: tuple) -> None:
        """Any deletion — policy eviction or Law-2 consume — lands here."""
        self._exhausted.discard(rid)
        self._pinned.discard(rid)
        self.bus.publish(
            TupleEvicted(self.name, self.clock.now, rid, self._pending_reason, values)
        )

    def on_compact(self, remap: Mapping[int, int]) -> None:
        """Keep exhausted/pinned sets valid across compaction."""
        self._exhausted = {remap[rid] for rid in self._exhausted if rid in remap}
        self._pinned = {remap[rid] for rid in self._pinned if rid in remap}
        self.bus.publish(
            TableCompacted(self.name, self.clock.now, remap=tuple(sorted(remap.items())))
        )

    # ------------------------------------------------------------------
    # bulk views
    # ------------------------------------------------------------------

    def rows(self) -> list[dict[str, Any]]:
        """All live rows as dicts (small tables / tests)."""
        return self.storage.to_rows()

    def rowset(self) -> RowSet:
        """All live row ids."""
        return self.storage.live_rowset()
