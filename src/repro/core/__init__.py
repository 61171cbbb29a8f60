"""The paper's contribution: data fungi, decay clocks, consume, distill.

Layering (bottom-up):

* :mod:`~repro.core.clock` — the periodic decay clock of Law 1.
* :mod:`~repro.core.events` — typed event bus (insert/infect/decay/
  evict/consume/summarise) the metrics and distiller hang off.
* :mod:`~repro.core.freshness` — freshness algebra and bands.
* :mod:`~repro.core.table` — ``DecayingTable``: the paper's
  ``R(t, f, A1..An)`` on top of the storage engine.
* :mod:`~repro.core.fungus` — the ``Fungus`` protocol and decay reports.
* :mod:`~repro.core.policy` — ``DecayPolicy``: fungus × period ×
  eviction mode × distill-on-evict, enforcing Law 1 tick by tick.
* :mod:`~repro.core.distill` — cooking rows into
  :class:`~repro.sketch.summary.TableSummary` containers (Law 2's
  "distill into useful knowledge").
* :mod:`~repro.core.health` — rot metrics: freshness bands, rot spots,
  edible fraction ("similar to Blue Cheese … remains edible").
* :mod:`~repro.core.db` — ``FungusDB``: the user-facing database that
  wires all of the above to the query engine, including
  ``CONSUME SELECT`` (Law 2).
"""

from repro.core.clock import DecayClock
from repro.core.events import (
    EventBus,
    SummaryCreated,
    TickCompleted,
    TupleDecayedBatch,
)
from repro.core.freshness import FreshnessBand, band_of, clamp_freshness
from repro.core.fungus import DecayReport, Fungus
from repro.core.table import BatchOutcome, DecayingTable
from repro.core.policy import DecayPolicy, EvictionMode
from repro.core.distill import Distiller, SummaryStore
from repro.core.health import HealthReport, measure_health
from repro.core.db import FungusDB

__all__ = [
    "BatchOutcome",
    "DecayClock",
    "DecayPolicy",
    "DecayReport",
    "DecayingTable",
    "Distiller",
    "EventBus",
    "EvictionMode",
    "FreshnessBand",
    "Fungus",
    "FungusDB",
    "HealthReport",
    "SummaryCreated",
    "SummaryStore",
    "TickCompleted",
    "TupleDecayedBatch",
    "band_of",
    "clamp_freshness",
    "measure_health",
]
