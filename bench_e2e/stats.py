"""Small statistics helpers shared by the workloads."""

from __future__ import annotations

from typing import Sequence

import numpy


def p_ms(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of samples taken in seconds, in ms; 0.0 when empty."""
    return float(numpy.percentile(samples, q)) * 1000.0 if len(samples) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
