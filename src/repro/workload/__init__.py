"""Synthetic workloads: the "Big Data" the paper gestures at.

All generators are deterministic under a seed, so every experiment is
reproducible run-to-run. The package covers:

* :mod:`~repro.workload.distributions` — seeded Zipf/Gaussian/categorical
  value pickers.
* :mod:`~repro.workload.arrival` — arrival processes per decay-clock
  tick: constant, Poisson, and the exponential-doubling
  "chessboard" process from the paper's fable.
* :mod:`~repro.workload.generators` — domain record generators
  (sensor readings, web log entries, market ticks).
* :mod:`~repro.workload.queries` — query workloads over a decaying
  table (point, range, aggregate, consuming).
* :mod:`~repro.workload.replay` — drives a FungusDB tick-by-tick from
  an arrival process + record generator.
"""

from repro.workload.distributions import ZipfInts, GaussianFloats, Categorical
from repro.workload.arrival import (
    ArrivalProcess,
    ChessboardArrivals,
    ConstantArrivals,
    PoissonArrivals,
)
from repro.workload.generators import (
    MarketTickGenerator,
    RecordGenerator,
    SensorGenerator,
    WebLogGenerator,
)
from repro.workload.queries import QueryWorkload
from repro.workload.replay import ReplayDriver, ReplayStats
from repro.workload.trace import RecordingDB, TraceRecorder, replay_trace

__all__ = [
    "ArrivalProcess",
    "Categorical",
    "ChessboardArrivals",
    "ConstantArrivals",
    "GaussianFloats",
    "MarketTickGenerator",
    "PoissonArrivals",
    "QueryWorkload",
    "RecordGenerator",
    "RecordingDB",
    "ReplayDriver",
    "ReplayStats",
    "SensorGenerator",
    "TraceRecorder",
    "WebLogGenerator",
    "ZipfInts",
    "replay_trace",
]
