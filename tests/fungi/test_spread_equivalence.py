"""EGI and Blue Cheese against their per-span reference, end to end.

``repro.sim``'s oracle cannot model the stochastic fungi, so this suite
is their referee: the same seeded schedule of ``insert_many``, ``tick``,
SQL ``CONSUME``/``DELETE``, ``pin`` and ``compact_every`` runs once on a
database whose table rots under the product fungus and once under the
per-span reference (:mod:`tests.fungi.spread_reference`), on a table
with a hash index. After every step both sides must agree on the
per-tuple infection stream (rid, origin, source), the per-tuple decay
stream, the freshness and live arrays, the spots, every
``DecayReport`` field, the event ledger and the policy RNG's state.
The product fungus also asserts, at the start of every cycle, that
each member of its spots is live.

One field is compared to a tolerance, for Blue Cheese only: the product
makes one ``decay_many`` per vein where the reference made one per
span, so a vein split around an eviction sums its ``freshness_removed``
in a different grouping (the values differ in the last bits). Every
freshness value and event is still exact.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core.db import FungusDB
from repro.core.fungus import DecayReport
from repro.core.events import TupleDecayedBatch, TupleInfectedBatch
from repro.fungi import BlueCheeseFungus, EGIFungus
from repro.storage import Schema
from tests.fungi.spread_reference import ReferenceBlueCheese, ReferenceEGI


class CheckedEGI(EGIFungus):
    """EGI that asserts the every-member-live rule before each cycle."""

    def cycle(self, table, rng):
        self._drop_evicted()
        members = self._spots.members()
        assert table.storage.live_mask()[members].all()
        return super().cycle(table, rng)


class CheckedBlueCheese(BlueCheeseFungus):
    def cycle(self, table, rng):
        self._drop_evicted()
        live = table.storage.live_mask()
        for spot in self._spots:
            assert live[spot.members.members()].all()
        return super().cycle(table, rng)


def _egi_spots(fungus) -> list:
    if isinstance(fungus, ReferenceEGI):
        return fungus.spots.spans()
    fungus._drop_evicted()
    return fungus._spots.spans()


def _vein_spots(fungus) -> list:
    if isinstance(fungus, ReferenceBlueCheese):
        return [(v.members.spans(), v.age) for v in fungus.veins]
    fungus._drop_evicted()
    return [(s.members.spans(), s.age) for s in fungus._spots]


def _schedule(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    steps: list[tuple] = [("insert", rng.randint(20, 80))]
    for _ in range(rng.randint(25, 60)):
        op = rng.choices(
            ["insert", "tick", "consume", "delete", "pin"], weights=[3, 6, 1, 1, 1]
        )[0]
        if op == "insert":
            steps.append(("insert", rng.randint(1, 60)))
        elif op == "tick":
            steps.append(("tick", rng.randint(1, 3)))
        elif op in ("consume", "delete"):
            steps.append((op, rng.randrange(30)))
        else:
            steps.append(("pin", rng.randrange(10_000)))
    return steps


class Side:
    """One database running the schedule under one fungus."""

    def __init__(self, fungus, compact_every: int, seed: int) -> None:
        self.fungus = fungus
        self.db = FungusDB(seed=seed)
        self.table = self.db.create_table(
            "r", Schema.of(k="int", v="float"), fungus=fungus, compact_every=compact_every
        )
        self.db.catalog.create_hash_index("r", "k")
        self.policy = self.db.policies["r"]
        self.policy.keep_reports = True
        self.infections: list[tuple] = []
        self.decays: list[tuple] = []
        self.db.bus.subscribe(
            TupleInfectedBatch,
            lambda e: self.infections.extend(
                (e.tick, rid, e.fungus, origin, source)
                for rid, origin, source in zip(e.rids, e.origins, e.sources)
            ),
        )
        self.db.bus.subscribe(
            TupleDecayedBatch,
            lambda e: self.decays.extend(
                (e.tick, rid, old, new, e.fungus)
                for rid, old, new in zip(e.rids, e.old_freshness, e.new_freshness)
            ),
        )
        self.rows = random.Random(seed)

    def step(self, op: str, arg: int) -> None:
        if op == "insert":
            self.db.insert_many(
                "r",
                [
                    {"k": self.rows.randrange(30), "v": self.rows.random()}
                    for _ in range(arg)
                ],
            )
        elif op == "tick":
            self.db.tick(arg)
        elif op == "consume":
            self.db.query(f"CONSUME SELECT k FROM r WHERE k < {arg // 3}")
        elif op == "delete":
            self.db.query(f"DELETE FROM r WHERE k = {arg}")
        elif op == "pin":
            live = self.table.storage.live_list()
            if live:
                self.table.pin(live[arg % len(live)])

    def state(self, spots) -> dict:
        storage = self.table.storage
        return {
            "infections": list(self.infections),
            "decays": list(self.decays),
            "freshness": storage.freshness_array()[: storage.allocated].tolist(),
            "live": storage.live_mask()[: storage.allocated].tolist(),
            "spots": spots(self.fungus),
            "reports": [dataclasses.astuple(r) for r in self.policy.stats.reports],
            "rng": self.policy.rng.getstate(),
            "counts": dict(self.db.bus.counts),
        }


#: position of ``freshness_removed`` in ``dataclasses.astuple(report)``
_REMOVED = [f.name for f in dataclasses.fields(DecayReport)].index("freshness_removed")


def _split_removed(state: dict) -> list[float]:
    reports = state.pop("reports")
    state["reports"] = [r[:_REMOVED] + r[_REMOVED + 1 :] for r in reports]
    return [r[_REMOVED] for r in reports]


def _run_pair(
    product, reference, spots, seed: int, compact_every: int, removed_rel: float = 0.0
) -> int:
    new = Side(product, compact_every, seed)
    ref = Side(reference, compact_every, seed)
    for op, arg in _schedule(seed):
        new.step(op, arg)
        ref.step(op, arg)
        got, want = new.state(spots), ref.state(spots)
        got_removed, want_removed = _split_removed(got), _split_removed(want)
        assert got == want, (op, arg)
        assert len(got_removed) == len(want_removed)
        for a, b in zip(got_removed, want_removed):
            assert a == b or math.isclose(a, b, rel_tol=removed_rel), (op, arg, a, b)
    return len(new.infections)


EGI_PARAMS = [
    dict(seeds_per_cycle=2, decay_rate=0.25),
    dict(seeds_per_cycle=4, decay_rate=0.5, age_bias=1),
    dict(seeds_per_cycle=1, decay_rate=0.1, spread=False),
    dict(seeds_per_cycle=3, decay_rate=1.0, age_bias=3),
]


@pytest.mark.parametrize("seed", range(24))
def test_egi_matches_the_per_span_cycle(seed):
    params = EGI_PARAMS[seed % len(EGI_PARAMS)]
    compact_every = (0, 2, 3, 7)[seed % 4]
    infections = _run_pair(
        CheckedEGI(**params), ReferenceEGI(**params), _egi_spots, seed, compact_every
    )
    assert infections  # the schedule did exercise the fungus


BLUE_PARAMS = [
    dict(max_spots=3, base_rate=0.15, acceleration=0.5),
    dict(max_spots=1, base_rate=0.4, acceleration=1.0, age_bias=2),
    dict(max_spots=5, base_rate=0.05, acceleration=0.25),
]


@pytest.mark.parametrize("seed", range(18))
def test_blue_cheese_matches_the_per_span_cycle(seed):
    params = BLUE_PARAMS[seed % len(BLUE_PARAMS)]
    compact_every = (0, 3, 5)[seed % 3]
    infections = _run_pair(
        CheckedBlueCheese(**params),
        ReferenceBlueCheese(**params),
        _vein_spots,
        seed,
        compact_every,
        removed_rel=1e-12,
    )
    assert infections
