"""The one timer the same-process benchmarks share.

Not a ``bench_*.py`` file, so pytest imports it but collects nothing
from it; the benchmarks import it as ``benchmarks.timing``.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import BenchError


def time_callable(fn: Callable[[], Any], repeats: int = 5) -> dict[str, float]:
    """Run ``fn`` ``repeats`` times; returns min/mean/max seconds.

    The *min* is the headline number (least-noise estimate).
    """
    if repeats < 1:
        raise BenchError(f"repeats must be >= 1, got {repeats}")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {
        "min": min(samples),
        "mean": sum(samples) / len(samples),
        "max": max(samples),
    }
