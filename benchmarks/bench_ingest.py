"""The batch write path against the per-row one, in one process.

Two ratios, at the batch size ``ingest_decay`` inserts: ``insert_many``
of 1000 rows into a table with the time index and one hash index >= 5x
the row-at-a-time path it replaced, and ``Schema.coerce_columns`` on a
clean 1000-row batch >= 5x a ``coerce_row`` loop. The per-row path is
kept here step for step (:class:`PerRowWriter`: two ``coerce_row``
calls, one append per column, a per-row update of both indexes — the
bodies of the per-row index hooks the batch ones replaced — and one
``TupleInserted`` event per row, the dataclass kept here — on plain
lists, so if anything it flatters the reference). The cost of a one-row
``insert`` through the batch path is printed, not gated. Same-process ratios only; numbers compared
across commits come from ``python -m bench_e2e run``.
"""

import bisect
import random
from dataclasses import dataclass

from benchmarks.timing import time_callable
from repro.core.db import FungusDB
from repro.core.events import Event, EventBus
from repro.storage import RowSet, Schema
from repro.storage.schema import ColumnDef, DataType

ATTRIBUTES = Schema.of(sensor="int", temp="float", site="str")
BATCH = 1000


@dataclass(frozen=True)
class TupleInserted(Event):
    """The per-row insert event the row-at-a-time path published."""

    rid: int


def _rows(count: int) -> list[dict]:
    rng = random.Random(0)
    return [
        {
            "sensor": rng.randrange(500),
            "temp": rng.gauss(22.0, 4.0),
            "site": f"site{rng.randrange(12):02d}",
        }
        for _ in range(count)
    ]


class PerRowWriter:
    """The write path before it took batches, one row at a time."""

    def __init__(self) -> None:
        self.schema = Schema(
            [
                ColumnDef("t", DataType.TIMESTAMP),
                ColumnDef("f", DataType.FLOAT),
                *ATTRIBUTES.columns,
            ]
        )
        self.columns: list[list] = [[] for _ in self.schema]
        self.live: list[bool] = []
        self.sensor_pos = self.schema.index_of("sensor")
        self.entries: list[tuple[float, int]] = []  # the time index
        self.buckets: dict[int, set[int]] = {}  # the hash index on sensor
        self.bus = EventBus()

    def insert(self, row: dict, now: float) -> int:
        values = ATTRIBUTES.coerce_row(row)
        full = self.schema.coerce_row((now, 1.0, *values))
        rid = len(self.live)
        for col, value in zip(self.columns, full):
            col.append(value)
        self.live.append(True)
        bisect.insort(self.entries, (full[0], rid))
        self.buckets.setdefault(full[self.sensor_pos], set()).add(rid)
        self.bus.publish(TupleInserted("readings", now, rid))
        return rid

    def insert_many(self, rows: list[dict], now: float) -> RowSet:
        return RowSet(self.insert(row, now) for row in rows)


def _indexed_db() -> FungusDB:
    db = FungusDB(seed=0)
    db.create_table("readings", ATTRIBUTES)  # time index on by default
    db.catalog.create_hash_index("readings", "sensor")
    return db


def test_insert_many_against_per_row_writer(capsys):
    rows = _rows(BATCH)
    db, writer = _indexed_db(), PerRowWriter()
    db.insert_many("readings", rows), writer.insert_many(rows, 0.0)  # warm-up
    loop_s = time_callable(lambda: writer.insert_many(rows, 0.0), repeats=9)["min"]
    batch_s = time_callable(lambda: db.insert_many("readings", rows), repeats=9)["min"]
    single = _indexed_db()
    one_s = time_callable(
        lambda: [single.insert("readings", row) for row in rows], repeats=9
    )["min"]
    with capsys.disabled():
        print(
            f"\ninsert_many({BATCH}), time + hash index: per-row "
            f"{loop_s * 1e3:.2f} ms, batch {batch_s * 1e3:.2f} ms, "
            f"{loop_s / batch_s:.1f}x; one-row insert {one_s / BATCH * 1e6:.1f} us"
        )
    assert db.table("readings").rows()[-1]["sensor"] == rows[-1]["sensor"]
    assert loop_s >= 5.0 * batch_s


def test_coerce_columns_against_coerce_row_loop(capsys):
    rows = _rows(BATCH)
    assert ATTRIBUTES.coerce_columns(rows) == [
        list(col) for col in zip(*(ATTRIBUTES.coerce_row(row) for row in rows))
    ]
    loop_s = time_callable(
        lambda: [ATTRIBUTES.coerce_row(row) for row in rows], repeats=9
    )["min"]
    batch_s = time_callable(lambda: ATTRIBUTES.coerce_columns(rows), repeats=9)["min"]
    with capsys.disabled():
        print(
            f"\ncoerce {BATCH} clean rows x 3 columns: coerce_row loop "
            f"{loop_s * 1e3:.3f} ms, coerce_columns {batch_s * 1e3:.3f} ms, "
            f"{loop_s / batch_s:.1f}x"
        )
    assert loop_s >= 5.0 * batch_s
