"""Hot-path profiling hooks, zero-overhead when disabled.

The decay core's hottest loops (EGI seed/spread cycles, predicate
scans over the row space) carry a guarded call into this module::

    if PROFILER.enabled:
        PROFILER.record("egi.cycle", rows=n, seconds=elapsed)

When disabled — the default — the cost at each site is exactly one
attribute load and a falsy branch; no objects are allocated and no
clock is read. Experiment T3's wall-clock check holds that claim to
< 5% ingest overhead.

This module is imported by the *storage* layer, the bottom of the
dependency stack, so it must stay stdlib-only: no imports from
anywhere else in :mod:`repro`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class SiteStats:
    """Accumulated cost of one instrumented call site."""

    calls: int = 0
    rows: int = 0
    seconds: float = 0.0

    def describe(self) -> str:
        per_call = self.seconds / self.calls * 1e6 if self.calls else 0.0
        return (
            f"calls={self.calls} rows={self.rows} "
            f"total={self.seconds * 1000:.3f}ms ({per_call:.1f}us/call)"
        )


class HotPathProfiler:
    """A process-wide accumulator keyed by call-site name.

    Sites are free-form dotted strings (``"egi.spread"``,
    ``"table.scan"``). The profiler is deliberately not thread-safe:
    the whole library assumes a single-threaded driver.
    """

    __slots__ = ("enabled", "_sites")

    #: Clock used by instrumented sites; exposed so call sites and the
    #: profiler always agree on the time base.
    time = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.enabled = False
        self._sites: dict[str, SiteStats] = {}

    def enable(self) -> None:
        """Start accumulating at every instrumented site."""
        self.enabled = True

    def disable(self) -> None:
        """Stop accumulating (already-collected stats are kept)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all accumulated stats (the enabled flag is untouched)."""
        self._sites.clear()

    def record(self, site: str, rows: int = 0, seconds: float = 0.0) -> None:
        """Add one observation for ``site``.

        Call sites guard this behind ``if PROFILER.enabled`` — calling
        it while disabled still records (useful in tests).
        """
        stats = self._sites.get(site)
        if stats is None:
            stats = self._sites[site] = SiteStats()
        stats.calls += 1
        stats.rows += rows
        stats.seconds += seconds

    def snapshot(self) -> dict[str, SiteStats]:
        """A copy of the per-site stats, keyed by site name."""
        return {
            site: SiteStats(s.calls, s.rows, s.seconds)
            for site, s in sorted(self._sites.items())
        }

    def describe(self) -> str:
        """Human-readable per-site cost table (empty string if none)."""
        return "\n".join(
            f"{site}: {stats.describe()}" for site, stats in sorted(self._sites.items())
        )


#: The process-wide profiler every instrumented hot path checks.
PROFILER = HotPathProfiler()
