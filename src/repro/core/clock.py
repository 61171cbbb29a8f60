"""The decay clock.

The paper's first law runs on "a periodic clock of T seconds". The
reproduction uses a *logical* clock: one unit = one potential decay
cycle, advanced explicitly by the driver. This keeps every experiment
deterministic and lets benchmarks compress "1.5 years" into a tick.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import DecayError
from repro.obs.tracing import Tracer


class DecayClock:
    """A monotonically advancing logical clock.

    ``on_advance`` subscribers run once per whole tick crossed, in
    registration order — this is how :class:`~repro.core.policy.DecayPolicy`
    instances get driven.

    Each tick's subscriber fan-out is a ``clock.advance`` span on
    ``tracer`` — the clock's own non-recording one until a
    :class:`~repro.core.db.FungusDB` hands it the database's.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._subscribers: list[Callable[[int], None]] = []
        self.tracer = Tracer(max_finished=0)

    @property
    def now(self) -> float:
        """Current logical time."""
        return self._now

    def subscribe(self, callback: Callable[[int], None]) -> None:
        """Register ``callback(tick)`` to run at each whole tick."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[int], None]) -> None:
        """Remove a previously registered callback (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def advance(self, ticks: int = 1) -> None:
        """Advance by ``ticks`` whole ticks, firing subscribers per tick.

        Each tick fires the subscribers registered *at the start of that
        tick* (a snapshot), so callbacks may freely ``subscribe`` /
        ``unsubscribe`` — themselves included — mid-cycle without
        skipping or double-firing anyone. A subscriber that raises
        aborts the advance: the clock stays at the tick that failed
        (time never rolls back), later subscribers of that tick and any
        remaining ticks are skipped, and the failure surfaces as a
        :class:`DecayError` chained to the original exception.
        """
        if ticks < 0:
            raise DecayError(f"clock cannot run backwards ({ticks} ticks)")
        for _ in range(ticks):
            self._now += 1.0
            tick = int(self._now)
            with self.tracer.span("clock.advance", tick=tick) as span:
                subscribers = list(self._subscribers)
                span.set(subscribers=len(subscribers))
                for callback in subscribers:
                    try:
                        callback(tick)
                    except DecayError:
                        raise
                    except Exception as exc:
                        # name, not repr: the default repr embeds a memory
                        # address, which would make recorded traces differ
                        # between identical seeded runs
                        who = getattr(callback, "__qualname__", None) or repr(callback)
                        raise DecayError(
                            f"clock subscriber {who} failed at tick {tick}"
                        ) from exc
