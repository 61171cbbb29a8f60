"""Timing helpers."""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.errors import BenchError


class Timer:
    """Context-manager stopwatch: ``with Timer() as t: ...; t.elapsed``."""

    def __init__(self) -> None:
        self.start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self.start is not None
        self.elapsed = time.perf_counter() - self.start


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

