"""Statistical checks on the fungus library's distributions.

The deterministic fungi are covered exactly by the differential oracle
in ``tests/sim``; the *stochastic* machinery — EGI's age-biased seed
selection — cannot be mirrored tuple-for-tuple, so it is tested here
the way one tests a die: draw many samples and run goodness-of-fit
tests against the distribution the docstring promises. The
deterministic curves get closed-form checks over several seeded runs
(the seed must not matter for them — that is part of the contract).
"""

import math
import random
from math import comb

import pytest

from repro.core.clock import DecayClock
from repro.core.table import DecayingTable
from repro.fungi import (
    EGIFungus,
    ExponentialDecayFungus,
    LinearDecayFungus,
    SigmoidDecayFungus,
)
from repro.storage import Schema

# chi-square critical values at alpha = 0.001 — generous enough that a
# correct implementation fails roughly one run in a thousand, while the
# biases we guard against overshoot these by orders of magnitude.
CHI2_CRIT_001 = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 9: 27.88, 24: 51.18}


def chi_square(observed, expected):
    """Pearson's goodness-of-fit statistic."""
    assert len(observed) == len(expected)
    return sum((o - e) ** 2 / e for o, e in zip(observed, expected))


def pool_small_bins(observed, expected, minimum=5.0):
    """Merge adjacent bins until each expects at least ``minimum``
    (the chi-square approximation's rule of thumb); a short tail joins
    the last full bin."""
    pooled_o, pooled_e = [], []
    o = e = 0.0
    for count, want in zip(observed, expected):
        o += count
        e += want
        if e >= minimum:
            pooled_o.append(o)
            pooled_e.append(e)
            o = e = 0.0
    if e > 0.0:
        pooled_o[-1] += o
        pooled_e[-1] += e
    return pooled_o, pooled_e


def make_aged_table(ages, clock=None):
    """One row per requested age, oldest first (row id == index)."""
    clock = clock or DecayClock()
    table = DecayingTable("r", Schema.of(v="int"), clock)
    horizon = max(ages)
    for i, age in enumerate(ages):
        while clock.now < horizon - age:
            clock.advance(1)
        table.insert({"v": i})
    while clock.now < horizon:
        clock.advance(1)
    return table


class TestEGISeedIsAgeBiased:
    """"select an element from R inversely randomly correlated with its
    age" — seed frequency must rise with tuple age."""

    def test_tournament_matches_exact_rank_law(self):
        """The oldest of ``k`` distinct uniform draws from ``n`` rows is
        the ``i``-th oldest (from 0) with probability
        ``C(n-1-i, k-1) / C(n, k)`` — the law the EGI docstring states."""
        n, k, draws = 50, 8, 4000
        table = make_aged_table([float(n - i) for i in range(n)])
        fungus = EGIFungus(age_bias=k)
        rng = random.Random(7)
        counts = [0] * n
        for _ in range(draws):
            counts[fungus._select_seed(table, rng)] += 1
        law = [comb(n - 1 - i, k - 1) / comb(n, k) for i in range(n)]
        assert math.isclose(sum(law), 1.0)
        observed, expected = pool_small_bins(counts, [draws * p for p in law])
        df = len(observed) - 1
        assert df == 24  # pins the pooling the critical value is for
        stat = chi_square(observed, expected)
        assert stat < CHI2_CRIT_001[df], (
            f"chi2={stat:.1f}, observed={observed}, expected={expected}"
        )

    def test_tournament_default_prefers_old_tuples(self):
        """Tournament selection (min rid of ``age_bias`` uniform
        candidates): the oldest decile should win far more than its
        uniform 10% share, and frequency should fall with recency."""
        n, bias, draws = 50, 8, 4000
        table = make_aged_table([float(n - i) for i in range(n)])
        fungus = EGIFungus(age_bias=bias)
        rng = random.Random(7)
        counts = [0] * n
        for _ in range(draws):
            counts[fungus._select_seed(table, rng)] += 1
        oldest_decile = sum(counts[: n // 10])
        uniform_share = draws // 10
        assert oldest_decile > 3 * uniform_share
        first_half = sum(counts[: n // 2])
        assert first_half > 0.95 * draws  # min-of-8 almost never lands late

    def test_tournament_rejects_uniformity(self):
        """KS-style check: the empirical CDF of the selected row rank
        must deviate from the uniform CDF by far more than the
        alpha=0.001 critical band."""
        n, draws = 50, 4000
        table = make_aged_table([float(n - i) for i in range(n)])
        fungus = EGIFungus(age_bias=8)
        rng = random.Random(11)
        counts = [0] * n
        for _ in range(draws):
            counts[fungus._select_seed(table, rng)] += 1
        max_gap = 0.0
        cumulative = 0
        for i in range(n):
            cumulative += counts[i]
            max_gap = max(max_gap, abs(cumulative / draws - (i + 1) / n))
        ks_crit = 1.949 / math.sqrt(draws)  # alpha = 0.001
        assert max_gap > 10 * ks_crit

    def test_infected_rows_excluded_from_seeding(self):
        # three rows, age_bias 8: every tournament samples all of them,
        # so the oldest *uninfected* row must win every time
        table = make_aged_table([3.0, 2.0, 1.0])
        fungus = EGIFungus()
        fungus._spots.add_runs([0], [1])
        rng = random.Random(1)
        assert all(fungus._select_seed(table, rng) == 2 for _ in range(50))


@pytest.mark.parametrize("seed", [1, 2, 3])
class TestDeterministicClosedForms:
    """The deterministic curves must match their closed forms for every
    rng seed — the rng parameter is part of the Fungus interface but
    these organisms may not consume it."""

    def _run(self, fungus, cycles, seed):
        clock = DecayClock()
        table = DecayingTable("r", Schema.of(v="int"), clock)
        rid = table.insert({"v": 1})
        rng = random.Random(seed)
        trace = []
        for _ in range(cycles):
            clock.advance(1)
            fungus.cycle(table, rng)
            trace.append(table.freshness(rid))
        return trace

    def test_linear_is_one_minus_n_times_rate(self, seed):
        rate = 0.15
        trace = self._run(LinearDecayFungus(rate=rate), 8, seed)
        for n, observed in enumerate(trace, start=1):
            assert observed == pytest.approx(max(0.0, 1.0 - n * rate), abs=1e-12)

    def test_exponential_is_geometric_with_floor(self, seed):
        half_life, evict_below = 3.0, 0.05
        fungus = ExponentialDecayFungus(half_life=half_life, evict_below=evict_below)
        trace = self._run(fungus, 16, seed)
        for n, observed in enumerate(trace, start=1):
            closed = 0.5 ** (n / half_life)
            if closed < evict_below:
                assert observed == 0.0
            else:
                assert observed == pytest.approx(closed, rel=1e-9)
        assert trace[int(half_life) - 1] == pytest.approx(0.5, rel=1e-9)

    def test_sigmoid_follows_the_logistic_curve(self, seed):
        midlife, steepness, evict_below = 6.0, 0.9, 0.05
        fungus = SigmoidDecayFungus(
            midlife=midlife, steepness=steepness, evict_below=evict_below
        )
        trace = self._run(fungus, 14, seed)
        for n, observed in enumerate(trace, start=1):
            closed = 1.0 / (1.0 + math.exp(steepness * (n - midlife)))
            if closed < evict_below:
                assert observed == 0.0
            else:
                assert observed == pytest.approx(closed, rel=1e-9)

    def test_curves_are_monotone_non_increasing(self, seed):
        for fungus in (
            LinearDecayFungus(rate=0.1),
            ExponentialDecayFungus(half_life=4.0),
            SigmoidDecayFungus(midlife=5.0, steepness=1.0),
        ):
            trace = self._run(fungus, 20, seed)
            assert all(a >= b for a, b in zip(trace, trace[1:]))
            assert all(0.0 <= f <= 1.0 for f in trace)
