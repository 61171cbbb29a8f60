"""Tests for repro.core.policy."""

import pytest

from repro.core.distill import Distiller, SummaryStore
from repro.core.events import TickCompleted
from repro.core.policy import DecayPolicy, EvictionMode
from repro.core.table import DecayingTable
from repro.errors import DecayError
from repro.fungi import EGIFungus, LinearDecayFungus, NullFungus
from repro.storage import RowSet, Schema


def make_policy(decaying, fungus=None, **kwargs):
    return DecayPolicy(decaying, fungus or LinearDecayFungus(rate=0.5), **kwargs)


class TestValidation:
    def test_period_positive(self, decaying):
        with pytest.raises(DecayError):
            make_policy(decaying, period=0)

    def test_lazy_batch_positive(self, decaying):
        with pytest.raises(DecayError):
            make_policy(decaying, lazy_batch=0)

    def test_compact_every_non_negative(self, decaying):
        with pytest.raises(DecayError):
            make_policy(decaying, compact_every=-1)


class TestPeriod:
    def test_fungus_runs_on_period_multiples(self, clock, decaying):
        policy = make_policy(decaying, period=3)
        assert policy.run_tick(1) is None
        assert policy.run_tick(2) is None
        assert policy.run_tick(3) is not None
        assert policy.stats.cycles_run == 1

    def test_every_tick_with_period_one(self, decaying):
        policy = make_policy(decaying)
        assert policy.run_tick(1) is not None
        assert policy.run_tick(2) is not None


class TestEviction:
    def test_eager_evicts_same_tick(self, clock, decaying):
        policy = make_policy(decaying, fungus=LinearDecayFungus(rate=1.0))
        clock.advance(1)
        policy.run_tick(1)
        assert len(decaying) == 0
        assert policy.stats.tuples_evicted == 10

    def test_lazy_waits_for_batch(self, clock, decaying):
        policy = make_policy(
            decaying,
            fungus=LinearDecayFungus(rate=1.0),
            eviction=EvictionMode.LAZY,
            lazy_batch=64,
        )
        clock.advance(1)
        policy.run_tick(1)
        # all 10 exhausted but batch threshold (64) not reached
        assert len(decaying) == 10
        assert len(decaying.exhausted) == 10

    def test_lazy_evicts_at_threshold(self, clock, decaying):
        policy = make_policy(
            decaying,
            fungus=LinearDecayFungus(rate=1.0),
            eviction=EvictionMode.LAZY,
            lazy_batch=5,
        )
        clock.advance(1)
        policy.run_tick(1)
        assert len(decaying) == 0


class TestDistillation:
    def test_distiller_receives_evictions(self, clock, decaying):
        store = SummaryStore()
        policy = make_policy(
            decaying,
            fungus=LinearDecayFungus(rate=1.0),
            distiller=Distiller(store),
        )
        clock.advance(1)
        policy.run_tick(1)
        assert store.total_rows_summarised == 10
        assert policy.stats.tuples_distilled == 10

    def test_no_distiller_no_summaries(self, clock, decaying):
        policy = make_policy(decaying, fungus=LinearDecayFungus(rate=1.0))
        clock.advance(1)
        policy.run_tick(1)
        assert policy.stats.tuples_distilled == 0


class TestCompaction:
    def test_compacts_on_cadence(self, clock, decaying):
        policy = make_policy(
            decaying, fungus=LinearDecayFungus(rate=0.5), compact_every=2
        )
        clock.advance(1)
        policy.run_tick(1)
        clock.advance(1)
        policy.run_tick(2)  # everything exhausted+evicted, then compacted
        assert decaying.storage.tombstones == 0
        assert policy.stats.compactions == 1

    def test_fungus_state_remapped_on_compaction(self, clock, decaying):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.01)
        policy = DecayPolicy(decaying, fungus, compact_every=1, seed=3)
        decaying.evict(RowSet([0, 1]), "manual")
        clock.advance(1)
        policy.run_tick(1)
        assert all(decaying.is_live(rid) for rid in fungus.infected)


class TestEvents:
    def test_tick_completed_published(self, clock, decaying):
        seen = []
        decaying.bus.subscribe(TickCompleted, seen.append)
        policy = make_policy(decaying, fungus=LinearDecayFungus(rate=1.0))
        clock.advance(1)
        policy.run_tick(1)
        assert len(seen) == 1
        assert seen[0].evicted == 10

    def test_fungus_notified_of_external_evictions(self, decaying):
        fungus = EGIFungus(seeds_per_cycle=1, decay_rate=0.1)
        DecayPolicy(decaying, fungus, seed=1)
        fungus._spots.add(4)
        decaying.evict(RowSet([4]), "consume")
        assert 4 not in fungus.infected

    def test_keep_reports(self, clock, decaying):
        policy = make_policy(decaying, keep_reports=True)
        clock.advance(1)
        policy.run_tick(1)
        assert len(policy.stats.reports) == 1

    def test_null_policy_never_evicts(self, clock, decaying):
        policy = make_policy(decaying, fungus=NullFungus())
        clock.advance(5)
        for tick in range(1, 6):
            policy.run_tick(tick)
        assert len(decaying) == 10
        assert policy.stats.tuples_evicted == 0
