"""Tests for repro.core.freshness."""

import pytest

from repro.core.freshness import (
    FRESH_THRESHOLD,
    ROTTEN_THRESHOLD,
    FreshnessBand,
    band_of,
    clamp_freshness,
)
from repro.errors import DecayError


class TestClamp:
    def test_in_range_passthrough(self):
        assert clamp_freshness(0.5) == 0.5

    def test_clamps_low_and_high(self):
        assert clamp_freshness(-0.3) == 0.0
        assert clamp_freshness(1.7) == 1.0

    def test_int_becomes_float(self):
        assert clamp_freshness(1) == 1.0
        assert isinstance(clamp_freshness(1), float)

    def test_rejects_non_numbers(self):
        with pytest.raises(DecayError):
            clamp_freshness("fresh")
        with pytest.raises(DecayError):
            clamp_freshness(True)


class TestBands:
    def test_fresh(self):
        assert band_of(1.0) is FreshnessBand.FRESH
        assert band_of(FRESH_THRESHOLD) is FreshnessBand.FRESH

    def test_stale(self):
        assert band_of(0.5) is FreshnessBand.STALE
        assert band_of(ROTTEN_THRESHOLD) is FreshnessBand.STALE

    def test_rotten(self):
        assert band_of(0.1) is FreshnessBand.ROTTEN
        assert band_of(0.0) is FreshnessBand.ROTTEN
