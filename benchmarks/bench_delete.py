"""One delete batch against the same rows deleted one at a time, in one process.

At the size of an ``ingest_decay`` eviction batch (550 rows), one
``DecayingTable.evict`` — ``Table.delete_many`` through the time index
and one hash index, the exhausted/pinned bookkeeping and one
``TupleEvictedBatch`` — must beat 550 single-row evictions (each a batch
of one: one call per index and one event per row) by the floor below.
Each repeat deletes from a freshly built table, so only the delete is
timed. Same-process ratios only; numbers compared across commits come
from ``python -m bench_e2e run``.
"""

import random
import time

from repro.core.db import FungusDB
from repro.storage import RowSet, Schema

ROWS = 2000
BATCH = 550
REPEATS = 9
#: half the median of five measured ratios (45.8x on a 2-core x86 box,
#: CPython 3.11)
FLOOR = 22.9


def _table_and_victims():
    db = FungusDB(seed=0)
    db.create_table("r", Schema.of(sensor="int", temp="float", site="str"))
    db.catalog.create_hash_index("r", "sensor")
    rng = random.Random(0)
    db.insert_many(
        "r",
        [
            {"sensor": rng.randrange(500), "temp": rng.gauss(22.0, 4.0), "site": f"s{i % 12}"}
            for i in range(ROWS)
        ],
    )
    return db.tables["r"], sorted(rng.sample(range(ROWS), BATCH))


def _best(delete) -> float:
    samples = []
    for _ in range(REPEATS):
        table, victims = _table_and_victims()
        start = time.perf_counter()
        delete(table, victims)
        samples.append(time.perf_counter() - start)
        assert len(table) == ROWS - BATCH
    return min(samples)


def _one_at_a_time(table, victims) -> None:
    for rid in victims:
        table.evict(RowSet.from_sorted((rid,)), "decay")


def test_delete_many_against_single_deletes(capsys):
    loop_s = _best(_one_at_a_time)
    batch_s = _best(
        lambda table, victims: table.evict(RowSet.from_sorted(tuple(victims)), "decay")
    )
    with capsys.disabled():
        print(
            f"\ndelete {BATCH} of {ROWS} rows, time + hash index: single evictions "
            f"{loop_s * 1e3:.2f} ms, one evict {batch_s * 1e3:.2f} ms, "
            f"{loop_s / batch_s:.1f}x"
        )
    assert loop_s >= FLOOR * batch_s
