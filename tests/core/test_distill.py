"""Tests for repro.core.distill."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.table as core_table
from repro import FungusDB, LinearDecayFungus
from repro.core.clock import DecayClock
from repro.core.distill import Distiller, SummaryStore
from repro.core.events import SummaryCreated
from repro.core.table import DecayingTable
from repro.errors import DistillError, StorageError
from repro.sketch import bloom as bloom_module
from repro.sketch import countmin as countmin_module
from repro.sketch import hyperloglog as hll_module
from repro.sketch import summary as summary_module
from repro.sketch.countmin import stable_hashes
from repro.sketch.serde import summary_to_dict
from repro.sketch.summary import TableSummary
from repro.storage import RowSet, Schema, Table
from repro.storage.schema import ColumnDef, DataType

_DEFAULT_SMALL_BATCH = core_table._SMALL_BATCH


class TestSummaryStore:
    def test_negative_budget_rejected(self):
        with pytest.raises(DistillError):
            SummaryStore(max_per_table=-1)

    def test_add_and_fetch(self, decaying):
        store = SummaryStore()
        distiller = Distiller(store)
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="test")
        assert len(store.for_table("r")) == 1
        assert store.total_rows_summarised == 2

    def test_unknown_table_empty(self):
        assert SummaryStore().for_table("nope") == []
        assert SummaryStore().merged("nope") is None

    def test_budget_merges_oldest_pair(self, decaying):
        store = SummaryStore(max_per_table=2)
        distiller = Distiller(store)
        for rid in range(6):
            distiller.distill_rowset(decaying, RowSet([rid]), reason=f"r{rid}")
        summaries = store.for_table("r")
        assert len(summaries) == 2
        assert store.merges == 4
        # no rows were lost in the folding
        assert sum(s.row_count for s in summaries) == 6

    def test_merged_covers_everything(self, decaying):
        store = SummaryStore()
        distiller = Distiller(store)
        distiller.distill_rowset(decaying, RowSet([0, 1]), reason="a")
        distiller.distill_rowset(decaying, RowSet([2]), reason="b")
        merged = store.merged("r")
        assert merged.row_count == 3

    def test_tables_listing(self, decaying):
        store = SummaryStore()
        Distiller(store).distill_rowset(decaying, RowSet([0]), reason="x")
        assert list(store.tables()) == ["r"]

    def test_memory_cells(self, decaying):
        store = SummaryStore()
        Distiller(store).distill_rowset(decaying, RowSet([0]), reason="x")
        assert store.memory_cells() > 0


class TestDistiller:
    def test_rowset_summary_contents(self, decaying):
        distiller = Distiller()
        summary = distiller.distill_rowset(decaying, RowSet([0, 1, 2]), reason="decay")
        assert summary.row_count == 3
        assert summary.spans == [(0, 3)]
        assert summary.time_range == (0.0, 0.0)
        assert summary.column("v").estimate_mean() == pytest.approx(1.0)

    def test_rowset_event_published(self, decaying):
        seen = []
        decaying.bus.subscribe(SummaryCreated, seen.append)
        Distiller().distill_rowset(decaying, RowSet([0]), reason="decay")
        assert seen[0].rows == 1
        assert seen[0].reason == "decay"

    def test_summaries_include_freshness_column(self, decaying):
        decaying.decay(0, 0.4, "x")
        summary = Distiller().distill_rowset(decaying, RowSet([0]), reason="decay")
        assert summary.column("f").estimate_mean() == pytest.approx(0.6)

    def test_dead_rid_raises_and_stores_nothing(self, decaying):
        seen = []
        decaying.bus.subscribe(SummaryCreated, seen.append)
        decaying.storage.delete(1)
        distiller = Distiller()
        with pytest.raises(StorageError):
            distiller.distill_rowset(decaying, RowSet([0, 1]), reason="decay")
        assert distiller.store.for_table("r") == [] and seen == []

    def test_empty_rowset_yields_empty_summary(self, decaying):
        seen = []
        decaying.bus.subscribe(SummaryCreated, seen.append)
        summary = Distiller().distill_rowset(decaying, RowSet(), reason="decay")
        assert summary.row_count == 0 and summary.spans == []
        assert summary.time_range is None
        assert [e.rows for e in seen] == [0]


def _bench_table(rows: int) -> DecayingTable:
    """``rows`` live rows of the bench_e2e READINGS schema (5 columns)."""
    rng = random.Random(5)
    table = DecayingTable(
        "readings", Schema.of(sensor="int", temp="float", site="str"), DecayClock()
    )
    table.insert_many(
        [
            {"sensor": rng.randrange(400), "temp": rng.gauss(22.0, 4.0), "site": f"s{i % 12}"}
            for i in range(rows)
        ]
    )
    return table


def test_one_hash_per_cell_one_gather_per_column(monkeypatch):
    """A 550-row distill hashes each cell once, in 5 batches, never per value."""
    table = _bench_table(550)
    hashed: list[int] = []
    gathered: list[str] = []

    def counting_hashes(values):
        hashed.append(len(values))
        return stable_hashes(values)

    def no_scalar_hash(value):
        raise AssertionError(f"per-value hash of {value!r} in a batch distill")

    def counting_gather(self, column, rids):
        gathered.append(column)
        return gather(self, column, rids)

    gather = Table.gather
    monkeypatch.setattr(summary_module, "stable_hashes", counting_hashes)
    for module in (countmin_module, hll_module, bloom_module):
        monkeypatch.setattr(module, "_stable_hash", no_scalar_hash)
    monkeypatch.setattr(Table, "gather", counting_gather)
    monkeypatch.setattr(Table, "row_dict", None)  # no per-row dicts either
    Distiller().distill_rowset(table, table.rowset(), reason="decay")
    assert hashed == [550] * 5
    assert sorted(gathered) == sorted(table.storage.schema.names)


# ----------------------------------------------------------------------
# differential: the columnar distill equals add_row over row_dict
# ----------------------------------------------------------------------

_row = st.tuples(st.integers(-50, 50), st.none() | st.floats(-1e6, 1e6))

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.lists(_row, min_size=1, max_size=50)),
        st.tuples(st.just("tick"), st.integers(1, 3)),
        st.tuples(st.just("pin"), st.integers(0, 400)),
        st.tuples(st.just("consume"), st.integers(-50, 50)),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.parametrize("small_batch", [0, 10**9], ids=["numpy", "reference"])
@settings(max_examples=30, deadline=None)
@given(bulk=st.lists(_row, min_size=40, max_size=70), ops=_ops)
def test_distill_equals_add_row_reference(small_batch, bulk, ops):
    """Every summary a schedule produces equals the per-row reference.

    ``bulk`` goes in first and dies as one batch above the summary's
    small-batch cut-over; the schedule's own distills are mostly below it.
    The decay batches run the vector kernel (``numpy``) or the scalar
    one (``reference``).
    """
    core_table._SMALL_BATCH = small_batch
    try:
        _check_distill_schedule(bulk, ops)
    finally:
        core_table._SMALL_BATCH = _DEFAULT_SMALL_BATCH


def _check_distill_schedule(bulk, ops):
    db = FungusDB(seed=3)
    table = db.create_table(
        "r",
        Schema([ColumnDef("k", DataType.INT), ColumnDef("x", DataType.FLOAT, nullable=True)]),
        fungus=LinearDecayFungus(rate=0.5),
    )
    compared = []
    columnar = db.distiller.distill_rowset

    def checked(target, rows, reason):
        reference = TableSummary(
            target.name,
            target.storage.schema,
            db.distiller.config,
            reason=reason,
            time_column=target.time_column,
        )
        reference.spans = rows.spans()
        for rid in rows:
            reference.add_row(target.row_dict(rid))
        summary = columnar(target, rows, reason)
        assert summary_to_dict(summary) == summary_to_dict(reference)
        compared.append(len(rows))
        return summary

    db.distiller.distill_rowset = checked
    for op, arg in [("insert", bulk), *ops]:
        if op == "insert":
            db.insert_many("r", [{"k": k, "x": x} for k, x in arg])
        elif op == "tick":
            db.tick(arg)
        elif op == "pin":
            if table.storage.is_live(arg):
                table.pin(arg)
        else:
            db.query(f"CONSUME SELECT k FROM r WHERE k >= {arg}")
    db.tick(3)  # whatever is not pinned rots away
    assert sum(compared) == db.store.total_rows_summarised
