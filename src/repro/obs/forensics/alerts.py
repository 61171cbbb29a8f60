"""Rot-rate alerting: declarative rules on the logical clock.

A rule is one line of text::

    eviction_rate > 2.5 for 5
    extent < 100
    consume_evict_ratio >= 1.0 for 3
    extent_half_life < 20 for 2

``<signal> <op> <threshold> [for <N>]`` — the rule *fires* (publishes
:class:`~repro.core.events.AlertFired`) after the condition has held
for ``N`` consecutive completed ticks of a table (default 1), and
*resolves* (:class:`~repro.core.events.AlertResolved`) on the first
tick it stops holding. Signals:

``eviction_rate``
    EWMA rate of Law-1 evictions (rows/tick, ``tau = 10`` ticks).
``consume_rate``
    EWMA rate of Law-2 consumptions.
``extent``
    Live row count of the table at tick end.
``exhausted``
    Rows at freshness 0 awaiting the eviction policy.
``consume_evict_ratio``
    Cumulative consumed ÷ cumulative decay-evicted (0 until the first
    eviction) — "are readers keeping ahead of the rot?".
``extent_half_life``
    Ticks since the extent was at least double what it is now
    (``inf`` until the first halving) — the paper's half-life lens on
    how fast R is disappearing.

Everything is evaluated on the *logical* decay clock, so alert
behaviour is deterministic per schedule and reproducible in the
simulation harness.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.events import (
    AlertFired,
    AlertResolved,
    EventBus,
    TickCompleted,
    TupleConsumedBatch,
    TupleEvictedBatch,
)
from repro.errors import ObsError
from repro.obs.metrics import EWMARate

#: Signals a rule may reference.
SIGNALS = (
    "eviction_rate",
    "consume_rate",
    "extent",
    "exhausted",
    "consume_evict_ratio",
    "extent_half_life",
)

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    "<": lambda v, t: v < t,
    ">=": lambda v, t: v >= t,
    "<=": lambda v, t: v <= t,
}

_RULE_RE = re.compile(
    r"^\s*(?P<signal>[a-z_]+)\s*(?P<op>>=|<=|>|<)\s*"
    r"(?P<threshold>-?\d+(?:\.\d+)?)"
    r"(?:\s+for\s+(?P<ticks>\d+))?\s*$"
)

#: EWMA time constant (ticks) for the rate signals.
RATE_TAU = 10.0

#: The half-life signal looks back at most this many extent samples.
EXTENT_HISTORY = 512


@dataclass(frozen=True)
class AlertRule:
    """One parsed rule; ``text`` is its canonical identity."""

    text: str
    signal: str
    op: str
    threshold: float
    for_ticks: int = 1

    @classmethod
    def parse(cls, text: str) -> "AlertRule":
        """Parse ``"signal op threshold [for N]"`` into a rule."""
        match = _RULE_RE.match(text)
        if match is None:
            raise ObsError(
                f"bad alert rule {text!r} — expected "
                f"'<signal> <op> <threshold> [for <N>]'"
            )
        signal = match.group("signal")
        if signal not in SIGNALS:
            raise ObsError(
                f"unknown alert signal {signal!r} — one of {', '.join(SIGNALS)}"
            )
        for_ticks = int(match.group("ticks") or 1)
        if for_ticks < 1:
            raise ObsError(f"alert rule {text!r}: 'for N' must be >= 1")
        return cls(
            text=" ".join(text.split()),
            signal=signal,
            op=match.group("op"),
            threshold=float(match.group("threshold")),
            for_ticks=for_ticks,
        )

    def matches(self, value: float) -> bool:
        return _OPS[self.op](value, self.threshold)


@dataclass
class _TableSignals:
    """Per-table signal state the engine maintains from events."""

    eviction_rate: EWMARate = field(default_factory=lambda: EWMARate(tau=RATE_TAU))
    consume_rate: EWMARate = field(default_factory=lambda: EWMARate(tau=RATE_TAU))
    evicted_total: int = 0
    consumed_total: int = 0
    extent_history: deque = field(
        default_factory=lambda: deque(maxlen=EXTENT_HISTORY)
    )


@dataclass
class _RuleState:
    streak: int = 0
    active: bool = False
    value: float = 0.0


class AlertEngine:
    """Evaluates alert rules per table at every completed tick.

    Wire it with :meth:`attach`; it listens to eviction/consume events
    to maintain its rate signals, evaluates every rule on
    :class:`TickCompleted`, and publishes fire/resolve transitions
    back onto the same bus (so the metrics collector, dashboard and
    lineage store all see them without knowing the engine exists).
    """

    def __init__(
        self,
        extent_probe: Callable[[str], tuple[int, int] | None],
        on_transition: Callable[[float, str, str, str, float], None] | None = None,
    ) -> None:
        #: ``extent_probe(table) -> (extent, exhausted)`` or None when
        #: the table is gone (rules then evaluate extent 0).
        self._probe = extent_probe
        #: ``on_transition(tick, table, rule_text, action, value)`` —
        #: the lineage store's alert log hangs off this.
        self._on_transition = on_transition
        self.rules: list[AlertRule] = []
        self._signals: dict[str, _TableSignals] = {}
        self._states: dict[tuple[str, str], _RuleState] = {}
        self._bus: EventBus | None = None

    # ------------------------------------------------------------------

    def add_rule(self, text: str) -> AlertRule:
        """Parse and install one rule (idempotent per canonical text)."""
        rule = AlertRule.parse(text)
        if all(existing.text != rule.text for existing in self.rules):
            self.rules.append(rule)
        return rule

    def remove_rule(self, text: str) -> bool:
        """Drop a rule by canonical text; returns True when found."""
        canonical = " ".join(text.split())
        for rule in list(self.rules):
            if rule.text == canonical:
                self.rules.remove(rule)
                for key in [k for k in self._states if k[1] == canonical]:
                    del self._states[key]
                return True
        return False

    def attach(self, bus: EventBus) -> None:
        """Subscribe to the event bus (once)."""
        if self._bus is not None:
            return
        self._bus = bus
        bus.subscribe(TupleEvictedBatch, self._on_evicted)
        bus.subscribe(TupleConsumedBatch, self._on_consumed)
        bus.subscribe(TickCompleted, self._on_tick)

    def detach(self) -> None:
        if self._bus is None:
            return
        self._bus.unsubscribe(TupleEvictedBatch, self._on_evicted)
        self._bus.unsubscribe(TupleConsumedBatch, self._on_consumed)
        self._bus.unsubscribe(TickCompleted, self._on_tick)
        self._bus = None

    # ------------------------------------------------------------------

    def _table(self, name: str) -> _TableSignals:
        signals = self._signals.get(name)
        if signals is None:
            signals = self._signals[name] = _TableSignals()
        return signals

    def _on_evicted(self, event: TupleEvictedBatch) -> None:
        signals = self._table(event.table)
        if event.reason == "consume":
            return  # consumption is its own signal
        # one mark per tuple: the alert log records this rate's value,
        # and one mark of n could round it differently
        for _ in range(len(event)):
            signals.eviction_rate.mark(1.0, now=event.tick)
        signals.evicted_total += len(event)

    def _on_consumed(self, event: TupleConsumedBatch) -> None:
        signals = self._table(event.table)
        for _ in range(len(event)):
            signals.consume_rate.mark(1.0, now=event.tick)
        signals.consumed_total += len(event)

    def _on_tick(self, event: TickCompleted) -> None:
        self.evaluate(event.table, event.tick)

    # ------------------------------------------------------------------

    def signal_value(self, table: str, signal: str, tick: float) -> float:
        """Current value of one signal for one table."""
        signals = self._table(table)
        if signal == "eviction_rate":
            return signals.eviction_rate.value_at(tick)
        if signal == "consume_rate":
            return signals.consume_rate.value_at(tick)
        if signal == "consume_evict_ratio":
            if signals.evicted_total == 0:
                return 0.0
            return signals.consumed_total / signals.evicted_total
        probed = self._probe(table)
        extent, exhausted = probed if probed is not None else (0, 0)
        if signal == "extent":
            return float(extent)
        if signal == "exhausted":
            return float(exhausted)
        if signal == "extent_half_life":
            return self._half_life(signals, extent, tick)
        raise ObsError(f"unknown alert signal {signal!r}")  # pragma: no cover

    @staticmethod
    def _half_life(signals: _TableSignals, extent: int, tick: float) -> float:
        """Ticks since the extent was >= 2x its current value."""
        if extent <= 0:
            # an empty table has fully disappeared; its last halving is
            # however long ago it last held anything
            for past_tick, past_extent in reversed(signals.extent_history):
                if past_extent > 0:
                    return tick - past_tick
            return math.inf
        for past_tick, past_extent in reversed(signals.extent_history):
            if past_extent >= 2 * extent:
                return tick - past_tick
        return math.inf

    def evaluate(self, table: str, tick: float) -> None:
        """Evaluate every rule for ``table`` at the end of a tick."""
        signals = self._table(table)
        probed = self._probe(table)
        extent = probed[0] if probed is not None else 0
        for rule in self.rules:
            value = self.signal_value(table, rule.signal, tick)
            state = self._states.setdefault((table, rule.text), _RuleState())
            state.value = value
            if rule.matches(value):
                state.streak += 1
                if state.streak >= rule.for_ticks and not state.active:
                    state.active = True
                    self._transition(tick, table, rule.text, "fired", value)
            else:
                state.streak = 0
                if state.active:
                    state.active = False
                    self._transition(tick, table, rule.text, "resolved", value)
        # record the extent *after* half-life evaluation so "2x ago"
        # never matches the current sample itself
        signals.extent_history.append((tick, extent))

    def _transition(
        self, tick: float, table: str, rule: str, action: str, value: float
    ) -> None:
        if self._on_transition is not None:
            self._on_transition(tick, table, rule, action, value)
        if self._bus is not None:
            if action == "fired":
                self._bus.publish(AlertFired(table, tick, rule, value))
            else:
                self._bus.publish(AlertResolved(table, tick, rule))

    # ------------------------------------------------------------------

    def active(self) -> list[tuple[str, str, float]]:
        """Currently firing alerts as ``(table, rule, value)``, sorted."""
        return sorted(
            (table, rule, state.value)
            for (table, rule), state in self._states.items()
            if state.active
        )

    def states(self) -> list[tuple[str, str, bool, int, float]]:
        """Every (table, rule) state: ``(table, rule, active, streak, value)``."""
        return sorted(
            (table, rule, state.active, state.streak, state.value)
            for (table, rule), state in self._states.items()
        )
