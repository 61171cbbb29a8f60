"""Freshness algebra.

Freshness lives in ``[0.0, 1.0]``: 1.0 at insertion (the paper's
"initially set to 1.0"), 0.0 means discarded. Bands give the metrics
and examples a vocabulary: the paper's Blue Cheese "remains edible for
a long time" — edible here means not yet ROTTEN.
"""

from __future__ import annotations

import enum

from repro.errors import DecayError

#: Band thresholds: freshness >= FRESH_THRESHOLD is FRESH,
#: >= ROTTEN_THRESHOLD is STALE, below is ROTTEN.
FRESH_THRESHOLD = 0.75
ROTTEN_THRESHOLD = 0.25


class FreshnessBand(enum.Enum):
    """Coarse freshness classification."""

    FRESH = "fresh"
    STALE = "stale"
    ROTTEN = "rotten"


def clamp_freshness(value: float) -> float:
    """Clamp a freshness value into [0, 1]; rejects non-numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DecayError(f"freshness must be a number, got {value!r}")
    return min(max(float(value), 0.0), 1.0)


def band_of(freshness: float) -> FreshnessBand:
    """Classify a freshness value into its band."""
    f = clamp_freshness(freshness)
    if f >= FRESH_THRESHOLD:
        return FreshnessBand.FRESH
    if f >= ROTTEN_THRESHOLD:
        return FreshnessBand.STALE
    return FreshnessBand.ROTTEN
