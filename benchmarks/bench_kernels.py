"""The vector decay kernel against the scalar reference, in one process.

Times one EGI decay cycle over a fully infected table (every row in
one rot spot, seeding and spread disabled) twice on the same table:
once with ``_SMALL_BATCH`` pinned to 0, so the batch runs the vector
kernel, and once pinned above the batch size, so it runs the scalar
``_apply_batch_py``. Asserts the ratio the vector kernel exists for:
>= 5x the scalar one at 100k rows. A same-process ratio is all this
file gates; numbers compared across commits come from
``python -m bench_e2e run``.
"""

import random

import pytest

import repro.core.table as core_table
from repro.bench.measure import time_callable
from repro.core.clock import DecayClock
from repro.core.table import DecayingTable
from repro.fungi import EGIFungus
from repro.storage import Schema


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
    fungus._spots.add_span(0, n_rows - 1)
    scalar = _cycle_seconds(table, fungus, small_batch=n_rows + 1)
    vectorized = _cycle_seconds(table, fungus, small_batch=0)
    ratio = scalar / vectorized
    with capsys.disabled():  # always report; only the 100k ratio is asserted
        print(
            f"\nEGI cycle, {n_rows} rows: scalar {scalar * 1e3:.2f} ms, "
            f"vectorized {vectorized * 1e3:.3f} ms, {ratio:.1f}x"
        )
    assert floor is None or ratio >= floor
