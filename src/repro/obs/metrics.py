"""Metric primitives: counters, gauges, histograms, EWMA rates.

A :class:`MetricsRegistry` holds named *families*; a family plus one
set of label values is a *child* holding the actual number(s). The
model (and the text exposition in :mod:`repro.obs.export`) follows
Prometheus conventions:

* **counter** — monotonically increasing total (``*_total`` names);
* **gauge** — a value that goes up and down (extent, tombstone ratio);
* **histogram** — bucketed distribution with ``_bucket``/``_sum``/
  ``_count`` samples;
* **ewma** — a time-decayed rate (exposed as a gauge). Decay runs on
  the *logical* decay clock, so rates are deterministic per schedule:
  after ``dt`` ticks of silence a rate has decayed by ``exp(-dt/tau)``
  (the temporally-biased-sampling shape — recent activity dominates).
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Sequence

from repro.errors import ObsError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for "rows touched" style counts.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObsError(f"invalid metric name {name!r}")
    return name


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ObsError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def uncount(self, amount: float) -> None:
        """Remove ``amount`` previously counted in error (floored at 0).

        The one sanctioned exception to monotonicity: a checkpoint
        restore replays insert events for rows that are not new, and
        the collector compensates when the ``RestoreCompleted`` event
        announces how many.
        """
        if amount < 0:
            raise ObsError(f"uncount amount must be >= 0, got {amount}")
        self.value = max(0.0, self.value - amount)


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """A fixed-bucket histogram with sum and count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(b != b for b in bounds):  # NaN check
            raise ObsError(f"invalid histogram buckets {buckets!r}")
        self.buckets = bounds
        self.counts = [0] * len(bounds)  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class EWMARate:
    """A time-decayed event rate on the logical clock.

    ``mark(n, now)`` decays the accumulated mass by
    ``exp(-dt / tau)`` for the ``dt`` clock units since the last mark,
    then adds ``n``. :attr:`value` is the decayed mass divided by
    ``tau`` — an estimate of "events per clock unit", weighted toward
    the recent past with time constant ``tau``.
    """

    __slots__ = ("tau", "_mass", "_last")

    def __init__(self, tau: float = 10.0) -> None:
        if tau <= 0:
            raise ObsError(f"EWMA time constant must be > 0, got {tau}")
        self.tau = float(tau)
        self._mass = 0.0
        self._last: float | None = None

    def mark(self, n: float = 1.0, now: float = 0.0) -> None:
        """Record ``n`` events at clock time ``now``."""
        if self._last is not None and now > self._last:
            self._mass *= math.exp(-(now - self._last) / self.tau)
        self._last = max(now, self._last) if self._last is not None else now
        self._mass += n

    def value_at(self, now: float) -> float:
        """The rate as observed at clock time ``now``."""
        if self._last is None:
            return 0.0
        dt = max(0.0, now - self._last)
        return self._mass * math.exp(-dt / self.tau) / self.tau

    @property
    def value(self) -> float:
        """The rate as of the most recent mark (deterministic)."""
        return self._mass / self.tau if self._last is not None else 0.0


_CHILD_TYPES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
    "ewma": EWMARate,
}


class MetricFamily:
    """One named metric with a fixed label schema and many children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        **child_kwargs,
    ) -> None:
        if kind not in _CHILD_TYPES:
            raise ObsError(f"unknown metric kind {kind!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ObsError(f"invalid label name {label!r} on {name!r}")
        self.name = _check_name(name)
        self.kind = kind
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._child_kwargs = child_kwargs
        self._children: dict[tuple[str, ...], object] = {}

    def labels(self, **labelvalues: object):
        """The child for one combination of label values (created lazily)."""
        if set(labelvalues) != set(self.labelnames):
            raise ObsError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _CHILD_TYPES[self.kind](**self._child_kwargs)
        return child

    def samples(self) -> Iterator[tuple[dict[str, str], object]]:
        """``(labels_dict, child)`` pairs in insertion order."""
        for key, child in self._children.items():
            yield dict(zip(self.labelnames, key)), child

    # -- label-free convenience (families with no labels) --------------

    def _default(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def mark(self, n: float = 1.0, now: float = 0.0) -> None:
        self._default().mark(n, now)


class MetricsRegistry:
    """Named metric families; get-or-create with schema checking."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}

    def _get_or_create(
        self, name: str, kind: str, help_text: str, labelnames: Sequence[str], **kwargs
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise ObsError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {list(family.labelnames)}"
                )
            return family
        family = MetricFamily(name, kind, help_text, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """A monotonically increasing total."""
        return self._get_or_create(name, "counter", help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """A value that can go up and down."""
        return self._get_or_create(name, "gauge", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """A fixed-bucket distribution."""
        return self._get_or_create(
            name, "histogram", help_text, labelnames, buckets=buckets
        )

    def ewma(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        tau: float = 10.0,
    ) -> MetricFamily:
        """A time-decayed rate (rendered as a gauge)."""
        return self._get_or_create(name, "ewma", help_text, labelnames, tau=tau)

    def get(self, name: str) -> MetricFamily | None:
        """The family called ``name``, or None."""
        return self._families.get(name)

    def families(self) -> list[MetricFamily]:
        """All families, sorted by name."""
        return [self._families[name] for name in sorted(self._families)]

    def value(self, name: str, **labelvalues: object) -> float:
        """Convenience: current scalar value of one child (tests, CLI)."""
        family = self._families.get(name)
        if family is None:
            raise ObsError(f"unknown metric {name!r}")
        child = family.labels(**labelvalues)
        if isinstance(child, Histogram):
            return float(child.count)
        return float(child.value)
