"""Summary sketches — the "cooking" containers of Law 2.

The paper's second law says data leaving ``R`` should be "distilled
into useful knowledge, summary, consumed by the user, or stored in a
new container subject to different data fungi". This package provides
the summary containers:

* :class:`~repro.sketch.reservoir.ReservoirSample` — uniform sample.
* :class:`~repro.sketch.countmin.CountMinSketch` — frequency estimates.
* :class:`~repro.sketch.hyperloglog.HyperLogLog` — distinct counting.
* :class:`~repro.sketch.bloom.BloomFilter` — membership.
* :class:`~repro.sketch.histogram.StreamingHistogram` — distribution shape.
* :class:`~repro.sketch.moments.RunningMoments` — moments.
* :class:`~repro.sketch.summary.TableSummary` — a per-column bundle of
  the above, the object the distiller actually emits.

All sketches are single-pass and bounded-space; the mergeable ones
(count-min, HLL, Bloom, moments, histogram, reservoir) support ``merge``
so summaries of different rot spots can be combined.

Each of those six takes values one at a time (``add``) or as a batch
(``add_all``), and the batch leaves exactly the state the loop leaves —
registers, counters, bits, bins, moments, sample and RNG position. The
three hash-based sketches get there by vectorizing updates that
commute, sharing one :func:`~repro.sketch.countmin.stable_hashes` array
per column (``add_hashes``); moments, reservoir and histogram depend on
arrival order and consume the batch sequentially.
"""

from repro.sketch.reservoir import ReservoirSample
from repro.sketch.countmin import CountMinSketch
from repro.sketch.hyperloglog import HyperLogLog
from repro.sketch.bloom import BloomFilter
from repro.sketch.histogram import StreamingHistogram
from repro.sketch.moments import RunningMoments
from repro.sketch.summary import ColumnSummary, TableSummary

__all__ = [
    "BloomFilter",
    "ColumnSummary",
    "CountMinSketch",
    "HyperLogLog",
    "ReservoirSample",
    "RunningMoments",
    "StreamingHistogram",
    "TableSummary",
]
