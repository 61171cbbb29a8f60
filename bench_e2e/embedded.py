"""The three workloads that run FungusDB inside the benchmark process.

Each class pre-generates its inputs (``generate``), builds the database
(``build``), replays a fixed schedule while timing every API call
(``timed``) and then checks the answers (``verify``). The schedule, not
the clock, ends a timed phase: the tables ramp, so a faster program must
do the same work sooner, not more work in the same time. ``--seconds``
picks the schedule length that takes about that long at the seed commit.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from typing import Any, Callable

from repro import EGIFungus, FungusDB, FungusError, LinearDecayFungus, Schema

from bench_e2e import inputs
from bench_e2e.stats import p_ms, ratio

clock = time.perf_counter

READINGS = {"sensor": "int", "temp": "float", "site": "str"}


class Embedded:
    """Shared bookkeeping: timed calls, failures, exact counts."""

    name = ""
    table = ""
    setup_reps = 1  # set-up is repeated and its median reported

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.seed = seed
        self.scale = seconds / 20.0  # schedules are sized for 20 s at the seed
        self.smoke = smoke
        self.db: FungusDB
        self.counts: dict[str, float] = {}  # the exact counts, set by verify()
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows_inserted = 0
        self.rows_consumed = 0
        self.rows_scanned = 0
        self.rows_out = 0  # rows answered (query_scan) or consumed by timed rounds
        self.run_s = 0.0

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, round(count * self.scale))

    def call(self, bucket: list[float], fn: Callable[..., Any], *args: Any) -> Any:
        """Time one API call into ``bucket``; a raised error is a failed operation."""
        self.attempted += 1
        started = clock()
        try:
            result = fn(*args)
        except FungusError as exc:
            result = None
            self.failed += 1
            self.problems.append(f"{fn.__name__}{args[:1]} raised {exc!r}")
        bucket.append(clock() - started)
        return result

    def sample_lists(self, *names: str) -> list[list[float]]:
        self.samples = {name: [] for name in names}
        return [self.samples[name] for name in names]

    @property
    def busy_s(self) -> float:
        """Time inside API calls during the timed phase."""
        return sum(sum(bucket) for bucket in self.samples.values())

    # -- after the timed phase --------------------------------------------

    def _counts(self, stats: dict[str, Any]) -> dict[str, float]:
        table = stats["tables"][self.table]
        return {
            "core.rows_inserted": self.rows_inserted,
            "core.rows_evicted": table["tuples_evicted"],
            "core.rows_consumed": self.rows_consumed,
            "core.rows_distilled": table["tuples_distilled"],
            "core.extent_end": table["extent"],
            "storage.tombstones_end": table["tombstones"],
            "core.events_published": sum(stats["events"].values()),
            "sketch.summary_cells": stats["summary_cells"],
        }

    def verify(self) -> None:
        """Conservation of rows, and everything that left was summarised."""
        stats = self.db.stats()
        self.counts = counts = self._counts(stats)
        gone = counts["core.rows_evicted"] + counts["core.rows_consumed"]
        if self.rows_inserted != counts["core.extent_end"] + gone:
            self.problems.append(
                f"rows not conserved: inserted {self.rows_inserted} != extent "
                f"{counts['core.extent_end']} + evicted/consumed {gone}"
            )
        summarised = stats["summary_rows"]
        if summarised != gone:
            self.problems.append(f"summarised {summarised} rows, {gone} left the table")
        if counts["core.rows_distilled"] != gone:
            self.problems.append(
                f"distilled {counts['core.rows_distilled']} rows, {gone} left the table"
            )

    def check_fresh(self, result: Any, f_pos: int) -> None:
        """No answer may hold a tuple the fungus has already eaten."""
        if result is not None and any(row[f_pos] <= 0.0 for row in result.rows):
            self.failed += 1
            self.problems.append("an answer holds a row with f <= 0")


# ----------------------------------------------------------------------


class IngestDecay(Embedded):
    """Law 1 under sustained ingest: rounds of insert_many(1000) + tick(1)."""

    name = "ingest_decay"
    table = "readings"
    setup_reps = 3

    def generate(self) -> None:
        self.rounds = 14 if self.smoke else self.scaled(270, floor=40)
        self.warmup = 4 if self.smoke else 20
        self.batch_rows = 200 if self.smoke else 1000
        rng = random.Random(self.seed)
        self.batches = inputs.row_batches(rng, 32, self.batch_rows)

    def build(self) -> None:
        self.db = FungusDB(seed=self.seed)
        self.db.create_table(
            "readings",
            Schema.of(**READINGS),
            fungus=EGIFungus(seeds_per_cycle=16, decay_rate=0.25),
        )
        self.db.catalog.create_hash_index("readings", "sensor")

    def timed(self) -> None:
        db, batches, warmup = self.db, self.batches, self.warmup
        inserts, ticks, warm = self.sample_lists("insert", "tick", "warmup")
        started = clock()
        for i in range(self.rounds):
            batch = batches[i % len(batches)]
            timed_round = i >= warmup
            self.call(inserts if timed_round else warm, db.insert_many, "readings", batch)
            self.call(ticks if timed_round else warm, db.tick, 1)
        self.run_s = clock() - started
        self.rows_inserted = self.rounds * self.batch_rows

    def end_to_end(self) -> dict[str, float]:
        return {
            "primary_p50_ms": p_ms(self.samples["tick"], 50),
            "secondary_p50_ms": p_ms(self.samples["insert"], 50),
            "tail_ms": p_ms(self.samples["tick"], 90),
        }

    def layer_timers(self) -> dict[str, float]:
        inserts = self.samples["insert"]
        return {
            "ingest.insert_p50_ms": p_ms(inserts, 50),
            "ingest.rows_per_s": ratio(len(inserts) * self.batch_rows, sum(inserts)),
            "tick.p50_ms": p_ms(self.samples["tick"], 50),
            "tick.p95_ms": p_ms(self.samples["tick"], 95),
        }


# ----------------------------------------------------------------------


class QueryScan(Embedded):
    """Read-only analytics over a table that has been rotting for 100 ticks."""

    name = "query_scan"
    table = "readings"
    checked_per_shape = 5

    def generate(self) -> None:
        self.load_batches = 10 if self.smoke else 100
        self.batch_rows = 300 if self.smoke else 2000
        rng = random.Random(self.seed)
        self.batches = inputs.row_batches(rng, 16, self.batch_rows)
        counts = {
            shape: 6 if self.smoke else self.scaled(native, floor=6)
            for shape, (_, native) in inputs.QUERY_SHAPES.items()
        }
        self.statements = inputs.query_statements(rng, counts, self.load_batches)

    def build(self) -> None:
        self.db = db = FungusDB(seed=self.seed)
        db.create_table(
            "readings",
            Schema.of(**READINGS),
            fungus=EGIFungus(seeds_per_cycle=16, decay_rate=0.25),
        )
        db.catalog.create_hash_index("readings", "sensor")
        for i in range(self.load_batches):
            db.insert_many("readings", self.batches[i % len(self.batches)])
            db.tick(1)
        self.rows_inserted = self.load_batches * self.batch_rows

    def timed(self) -> None:
        query = self.db.query
        buckets = dict(zip(inputs.QUERY_SHAPES, self.sample_lists(*inputs.QUERY_SHAPES)))
        seen: Counter[str] = Counter()
        self.kept: list[tuple[inputs.Statement, Any]] = []
        started = clock()
        for statement in self.statements:
            shape = statement.shape
            result = self.call(buckets[shape], query, statement.sql)
            if result is None:
                continue
            self.rows_scanned += result.stats.rows_scanned
            self.rows_out += len(result.rows)
            if shape == "S3":
                self.check_fresh(result, 1)
            if seen[shape] < self.checked_per_shape:
                seen[shape] += 1
                self.kept.append((statement, result))
        self.run_s = clock() - started

    def verify(self) -> None:
        super().verify()
        rows = self.db.table("readings").rows()
        for statement, result in self.kept:
            self.attempted += 1
            problem = _compare(statement, result.rows, _reference(statement, rows))
            if problem:
                self.failed += 1
                self.problems.append(f"{statement.sql}: {problem}")

    def end_to_end(self) -> dict[str, float]:
        return {
            "primary_p50_ms": p_ms(self.samples["S1"], 50),
            "secondary_p50_ms": p_ms(self.samples["S3"], 50),
            "tail_ms": p_ms(self.samples["S3"], 95),
        }

    def layer_timers(self) -> dict[str, float]:
        out = {
            f"query.{label}_p50_ms": p_ms(self.samples[shape], 50)
            for shape, (label, _) in inputs.QUERY_SHAPES.items()
        }
        out["query.rows_scanned_per_row_out"] = ratio(self.rows_scanned, self.rows_out)
        return out


def _reference(statement: inputs.Statement, rows: list[dict[str, Any]]) -> list[tuple]:
    """The answer to ``statement`` computed in plain Python from the live rows."""
    shape, params = statement.shape, statement.params
    if shape == "S1":
        temp, residue = params
        return [(sum(1 for r in rows if r["temp"] > temp and r["sensor"] % 7 == residue),)]
    if shape == "S2":
        groups: dict[str, list[float]] = {}
        for r in rows:
            if r["temp"] > params[0]:
                acc = groups.setdefault(r["site"], [0, 0.0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += r["temp"]
                acc[2] += r["temp"] * r["f"]
                acc[3] += r["f"]
        return [
            (site, n, total / n, weighted / weight)
            for site, (n, total, weighted, weight) in groups.items()
        ]
    if shape == "S3":
        return [(r["temp"], r["f"]) for r in rows if r["sensor"] == params[0]]
    if shape == "S4":
        site, temp = params
        return [(sum(1 for r in rows if r["site"] == site and r["temp"] > temp),)]
    if shape == "S5":
        return [(r["sensor"], r["temp"]) for r in rows if r["temp"] > params[0]]
    if shape == "S6":
        return [(sum(1 for r in rows if r["f"] < params[0]),)]
    if shape == "S7":
        hot = sorted(
            (r for r in rows if r["temp"] > params[0]), key=lambda r: -r["temp"]
        )
        return [(r["sensor"], r["temp"]) for r in hot[:10]]
    lo, hi = params
    temps = [r["temp"] for r in rows if lo <= r["t"] <= hi]
    return [(len(temps), sum(temps) / len(temps) if temps else None)]


def _compare(statement: inputs.Statement, got: list[tuple], want: list[tuple]) -> str:
    """Empty when ``got`` equals ``want``; floats may differ in summation order."""
    if statement.shape != "S7":  # only ORDER BY fixes the row order
        got, want = sorted(got), sorted(want)
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    for got_row, want_row in zip(got, want):
        for a, b in zip(got_row, want_row):
            same = (
                math.isclose(a, b, rel_tol=1e-9)
                if isinstance(a, float) and isinstance(b, float)
                else a == b
            )
            if not same:
                return f"row {got_row} != reference {want_row}"
    return ""


# ----------------------------------------------------------------------


class ConsumeCook(Embedded):
    """Law 2 beside ingest and decay, with the shell's observability on."""

    name = "consume_cook"
    table = "events"
    setup_reps = 3

    def generate(self) -> None:
        self.rounds = 10 if self.smoke else self.scaled(66, floor=32)
        # C1 asks for f < 0.8, which linear decay at 0.01 reaches after 20
        # ticks, and takes one sensor residue of four per round
        self.warmup = 4 if self.smoke else 24
        self.batch_rows = 200 if self.smoke else 1500
        self.rate = 0.1 if self.smoke else 0.01
        rng = random.Random(self.seed)
        self.batches = inputs.row_batches(rng, 24, self.batch_rows)
        self.statements = inputs.consume_statements(rng, self.rounds)

    def build(self) -> None:
        self.db = db = FungusDB(seed=self.seed)
        db.create_table(
            "events", Schema.of(**READINGS), fungus=LinearDecayFungus(rate=self.rate)
        )
        db.enable_telemetry()
        db.enable_querystats()

    def timed(self) -> None:
        db, batches, warmup = self.db, self.batches, self.warmup
        inserts, ticks, c1s, c2s, warm = self.sample_lists(
            "insert", "tick", "c1", "c2", "warmup"
        )
        started = clock()
        for i, (c1, c2) in enumerate(self.statements):
            timed_round = i >= warmup
            self.call(inserts if timed_round else warm, db.insert_many, "events",
                      batches[i % len(batches)])
            self.call(ticks if timed_round else warm, db.tick, 1)
            first = self.call(c1s if timed_round else warm, db.query, c1)
            second = self.call(c2s if timed_round else warm, db.query, c2)
            self.check_fresh(second, 2)
            for result in (first, second):
                if result is not None:
                    self.rows_consumed += result.stats.rows_consumed
                    if timed_round:
                        self.rows_out += result.stats.rows_consumed
        self.run_s = clock() - started
        self.rows_inserted = self.rounds * self.batch_rows

    def _round_consume(self) -> list[float]:
        return [a + b for a, b in zip(self.samples["c1"], self.samples["c2"])]

    def end_to_end(self) -> dict[str, float]:
        consume = self._round_consume()
        return {
            "primary_p50_ms": p_ms(consume, 50),
            "secondary_p50_ms": p_ms(self.samples["tick"], 50),
            "tail_ms": p_ms(consume, 75),
        }

    def layer_timers(self) -> dict[str, float]:
        inserts = self.samples["insert"]
        return {
            "ingest.insert_p50_ms": p_ms(inserts, 50),
            "ingest.rows_per_s": ratio(len(inserts) * self.batch_rows, sum(inserts)),
            "tick.p50_ms": p_ms(self.samples["tick"], 50),
            "consume.c1_p50_ms": p_ms(self.samples["c1"], 50),
            "consume.c2_p50_ms": p_ms(self.samples["c2"], 50),
            # rows the timed rounds consumed, per second spent inside C1 + C2
            "consume.rows_per_s": ratio(self.rows_out, sum(self._round_consume())),
        }


WORKLOADS = {cls.name: cls for cls in (IngestDecay, QueryScan, ConsumeCook)}
