"""Known-good fixture: the array shape RS007 asks of observers.

Same scope as ``repro/obs/collector.py`` beside it
(``repro/core/health.py``), no finding: band occupancy comes from the
one helper on the table, and the decay batch is folded as arrays.
"""

import numpy


def sample_bands(table, gauge):
    for band, count in table.band_counts().items():
        gauge.labels(table=table.name, band=band.value).set(count)


def removed_mass(event):
    delta = numpy.asarray(event.old_freshness) - numpy.asarray(event.new_freshness)
    return float(delta[delta >= 0].sum())
