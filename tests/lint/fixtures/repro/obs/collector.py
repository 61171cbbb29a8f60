"""Known-bad fixture: observers that re-expand a vectorized mutation row by row.

The path (``repro/obs/collector.py``) puts this file inside RS007's
observer scope; every per-row read in the loops below must be flagged.
``repro/core/health.py`` beside it is the sanctioned array shape.
"""


def on_decayed_batch(collector, event):
    for sub in event.expand():  # flagged: one dataclass per decayed row
        collector.on_decayed(sub)


def sample_bands(table, bands):
    for f in table.freshness_values():  # flagged
        bands[band_of(f)] += 1  # flagged
    return bands


def distinct_values(table, names):
    return {name: set(table.column_values(name)) for name in names}  # flagged


def first_value(table, name):
    # a single read outside any loop is fine (one-off inspection)
    return table.column_values(name)[0]
