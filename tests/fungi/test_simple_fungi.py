"""Tests for retention, linear and exponential fungi."""

import random

import pytest

from repro.core.db import FungusDB
from repro.errors import DecayError
from repro.fungi import ExponentialDecayFungus, LinearDecayFungus, RetentionFungus
from repro.storage import Schema


@pytest.fixture
def rng():
    return random.Random(0)


class TestRetention:
    def test_max_age_positive(self):
        with pytest.raises(DecayError):
            RetentionFungus(0)

    def test_freshness_ramps_linearly(self, clock, decaying, rng):
        fungus = RetentionFungus(max_age=10)
        clock.advance(5)
        fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == pytest.approx(0.5)

    def test_expires_exactly_at_max_age(self, clock, decaying, rng):
        fungus = RetentionFungus(max_age=4)
        clock.advance(4)
        report = fungus.cycle(decaying, rng)
        assert report.newly_exhausted == 10
        assert all(decaying.freshness(rid) == 0.0 for rid in decaying.live_rows())

    def test_staggered_inserts_expire_in_order(self, clock, decaying, rng):
        fungus = RetentionFungus(max_age=5)
        clock.advance(3)
        late = decaying.insert({"v": 99})
        clock.advance(2)  # originals now age 5, late age 2
        fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == 0.0
        assert decaying.freshness(late) == pytest.approx(0.6)

    def test_never_raises_freshness(self, clock, decaying, rng):
        fungus = RetentionFungus(max_age=10)
        decaying.set_freshness(0, 0.1)  # externally lowered below ramp
        clock.advance(1)
        fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == pytest.approx(0.1)

    @pytest.mark.parametrize("window", [1, 3, 30])
    def test_eager_table_holds_exactly_the_last_window_minus_one_ticks(self, window):
        """The window baseline F4 compares against: a cliff, not a ramp.

        A row inserted at ``t`` is exhausted at ``t + W`` and evicted in
        that same tick, so after each tick the table holds the rows of
        the last W-1 insert ticks and nothing older.
        """
        db = FungusDB(seed=0)
        db.create_table(
            "r", Schema.of(v="int"), fungus=RetentionFungus(window), distill_on_evict=False
        )
        for tick in range(3 * window + 5):
            # v records the insert tick; some ticks insert nothing
            db.insert_many("r", [{"v": tick}] * (tick % 3))
            db.tick(1)
            live = sorted(v for (v,) in db.query("SELECT v FROM r").rows)
            recent = range(max(0, tick - window + 2), tick + 1)
            assert live == [v for v in recent for _ in range(v % 3)]
            assert db.table("r").exhausted_count == 0


class TestLinear:
    def test_rate_validated(self):
        with pytest.raises(DecayError):
            LinearDecayFungus(0)
        with pytest.raises(DecayError):
            LinearDecayFungus(1.5)

    def test_constant_loss_per_cycle(self, decaying, rng):
        fungus = LinearDecayFungus(rate=0.3)
        fungus.cycle(decaying, rng)
        assert all(
            decaying.freshness(rid) == pytest.approx(0.7) for rid in decaying.live_rows()
        )

    def test_lifetime_is_inverse_rate(self, decaying, rng):
        fungus = LinearDecayFungus(rate=0.25)
        for _ in range(4):
            fungus.cycle(decaying, rng)
        assert len(decaying.exhausted) == 10

    def test_report_accounting(self, decaying, rng):
        report = LinearDecayFungus(rate=0.5).cycle(decaying, rng)
        assert report.decayed == 10
        assert report.freshness_removed == pytest.approx(5.0)
        assert report.newly_exhausted == 0

    def test_skips_already_exhausted(self, decaying, rng):
        fungus = LinearDecayFungus(rate=1.0)
        fungus.cycle(decaying, rng)
        report = fungus.cycle(decaying, rng)
        assert report.decayed == 0


class TestExponential:
    def test_validation(self):
        with pytest.raises(DecayError):
            ExponentialDecayFungus(0)
        with pytest.raises(DecayError):
            ExponentialDecayFungus(10, evict_below=1.0)

    def test_half_life(self, decaying, rng):
        fungus = ExponentialDecayFungus(half_life=4, evict_below=0.0)
        for _ in range(4):
            fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == pytest.approx(0.5)

    def test_floor_exhausts(self, decaying, rng):
        fungus = ExponentialDecayFungus(half_life=1, evict_below=0.3)
        fungus.cycle(decaying, rng)  # 1.0 -> 0.5
        fungus.cycle(decaying, rng)  # 0.25 < floor -> 0
        assert len(decaying.exhausted) == 10

    def test_decay_is_multiplicative(self, decaying, rng):
        decaying.set_freshness(0, 0.5)
        fungus = ExponentialDecayFungus(half_life=1, evict_below=0.0)
        fungus.cycle(decaying, rng)
        assert decaying.freshness(0) == pytest.approx(0.25)
        assert decaying.freshness(1) == pytest.approx(0.5)
