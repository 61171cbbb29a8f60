"""The array kernels against their references, in one process.

1. Times one EGI decay cycle over a fully infected table (every row in
   one rot spot, seeding and spread disabled) twice on the same table:
   once with ``_SMALL_BATCH`` pinned to 0, so the batch runs the vector
   kernel, and once pinned above the batch size, so it runs the scalar
   ``_apply_batch_py``. Asserts the ratio the vector kernel exists for:
   >= 5x the scalar one at 100k rows.
2. Times one whole EGI cycle at ``ingest_decay``'s end state — 200k
   rows, 400 tombstone runs, a 10-row rot spot bordering each — against
   the per-span reference cycle (``tests/fungi/spread_reference.py``):
   the array pass must be >= 3x faster.

A same-process ratio is all this file gates; numbers compared across
commits come from ``python -m bench_e2e run``.
"""

import random

import pytest

import repro.core.table as core_table
from benchmarks.timing import time_callable
from repro.core.clock import DecayClock
from repro.core.table import DecayingTable
from repro.fungi import EGIFungus
from repro.storage import RowSet, Schema
from tests.fungi.spread_reference import ReferenceEGI


def _cycle_seconds(table: DecayingTable, fungus: EGIFungus, small_batch: int) -> float:
    rng = random.Random(0)
    default = core_table._SMALL_BATCH
    core_table._SMALL_BATCH = small_batch
    try:
        fungus.cycle(table, rng)  # warm-up
        return time_callable(lambda: fungus.cycle(table, rng), repeats=7)["min"]
    finally:
        core_table._SMALL_BATCH = default


@pytest.mark.parametrize(
    "n_rows, floor", [(10_000, None), (100_000, 5.0)], ids=["10k", "100k"]
)
def test_vectorized_egi_cycle_beats_scalar(n_rows, floor, capsys):
    table = DecayingTable("r", Schema.of(v="int"), DecayClock())
    table.insert_many({"v": i} for i in range(n_rows))
    # one table-wide rot spot; no seeding or spread, so a cycle is
    # exactly one batch decay pass over n_rows members
    fungus = EGIFungus(seeds_per_cycle=0, decay_rate=1e-6, spread=False)
    fungus._spots.add_runs([0], [n_rows - 1])
    scalar = _cycle_seconds(table, fungus, small_batch=n_rows + 1)
    vectorized = _cycle_seconds(table, fungus, small_batch=0)
    ratio = scalar / vectorized
    with capsys.disabled():  # always report; only the 100k ratio is asserted
        print(
            f"\nEGI cycle, {n_rows} rows: scalar {scalar * 1e3:.2f} ms, "
            f"vectorized {vectorized * 1e3:.3f} ms, {ratio:.1f}x"
        )
    assert floor is None or ratio >= floor


def _end_state(n_rows: int, runs: int, run_len: int, spot_len: int):
    """A table with ``runs`` tombstone runs and a rot spot starting right
    after each (its prev neighbour lies across the run)."""
    table = DecayingTable("r", Schema.of(v="int"), DecayClock())
    table.insert_many({"v": i} for i in range(n_rows))
    stride = n_rows // runs
    starts = [k * stride for k in range(runs)]
    table.evict(
        RowSet(rid for start in starts for rid in range(start, start + run_len)),
        "decay",
    )
    return table, [(s + run_len, s + run_len + spot_len - 1) for s in starts]


def test_array_egi_cycle_beats_the_per_span_cycle(capsys):
    seconds = {}
    for name, make in (
        ("per-span", lambda: ReferenceEGI(seeds_per_cycle=16, decay_rate=1e-6)),
        ("array", lambda: EGIFungus(seeds_per_cycle=16, decay_rate=1e-6)),
    ):
        table, spans = _end_state(200_000, 400, 250, 10)
        fungus = make()
        if isinstance(fungus, ReferenceEGI):
            fungus.spots.replace(spans)
        else:
            fungus._spots.add_runs([lo for lo, _ in spans], [hi for _, hi in spans])
        rng = random.Random(0)
        fungus.cycle(table, rng)  # warm-up
        seconds[name] = time_callable(lambda: fungus.cycle(table, rng), repeats=5)["min"]
    ratio = seconds["per-span"] / seconds["array"]
    with capsys.disabled():
        print(
            f"\nEGI cycle, 200k rows / 400 tombstone runs / 400 spots: per-span "
            f"{seconds['per-span'] * 1e3:.2f} ms, array {seconds['array'] * 1e3:.2f} ms, "
            f"{ratio:.1f}x"
        )
    assert ratio >= 3.0
