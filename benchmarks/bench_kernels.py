"""Benchmark the vectorized decay kernels against the scalar fallback.

Times one EGI decay cycle over a fully infected table (every row in
one rot spot, seeding and spread disabled) at 10k and 100k rows, on
both backends. ``extra_info["rows"]`` feeds the rows/s figure in
``BENCH_kernels.json``; the vectorized/scalar rows/s ratio at 100k is
the headline number the kernels exist for (must stay >= 5x).
"""

import random

import pytest

from repro.core.clock import DecayClock
from repro.core.table import DecayingTable
from repro.fungi import EGIFungus
from repro.storage import Schema


def _infected_table(n_rows: int, kernels: bool) -> tuple[DecayingTable, EGIFungus]:
    clock = DecayClock()
    table = DecayingTable("r", Schema.of(v="int"), clock, kernels=kernels)
    for i in range(n_rows):
        table.insert({"v": i})
    # one table-wide rot spot; no seeding or spread, so a cycle is
    # exactly one batch decay pass over n_rows members
    fungus = EGIFungus(seeds_per_cycle=0, decay_rate=1e-6, spread=False)
    fungus._spots.add_span(0, n_rows - 1)
    return table, fungus


@pytest.mark.parametrize("n_rows", [10_000, 100_000], ids=["10k", "100k"])
@pytest.mark.parametrize("backend", ["scalar", "vectorized"])
def test_egi_decay_cycle(benchmark, n_rows, backend):
    """rows/s of one full-spot EGI decay cycle per backend."""
    table, fungus = _infected_table(n_rows, kernels=backend == "vectorized")
    rng = random.Random(0)
    benchmark.extra_info["rows"] = n_rows
    benchmark.extra_info["backend"] = backend
    benchmark.pedantic(
        lambda: fungus.cycle(table, rng), iterations=1, rounds=7, warmup_rounds=1
    )
