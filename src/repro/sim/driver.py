"""The deterministic simulation driver.

A :class:`Simulator` replays one schedule against *two* systems in
lock-step — a real :class:`~repro.core.db.FungusDB` and the naive
:class:`~repro.sim.oracle.Oracle` — and diffs their entire state after
every single operation:

* extent, row order, and exact ``(t, f, attributes)`` of every tuple;
* the exhausted and pinned sets (by stable key);
* the conservation law (live + summarised == ever inserted);
* the fungus-agnostic invariants of :mod:`repro.sim.invariants`,
  including per-tuple freshness monotonicity across the whole run;
* for queries: the answer set; for ``CONSUME SELECT``: that exactly
  ``σ_P(R)`` was removed, no more, no less.

Fault steps (torn checkpoints, truncated snapshots, crashing clock
subscribers, dropped/duplicated ticks) additionally assert the
*documented* failure reaction, and the model tracks what real state
the fault legitimately changed (e.g. a crashed subscriber still costs
a clock tick).

Any disagreement is recorded as a :class:`Divergence` carrying the
step index and offending op — enough to replay and shrink it.

Passing ``trace_dir`` records a full span trace of the run (one
``sim.op`` span per step, with the tick/query/checkpoint spans the
database emits nested inside it) to ``<trace_dir>/seed-<N>.jsonl`` —
the flight recorder for post-mortem debugging of a divergence.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.core.policy import EvictionMode
from repro.errors import DecayError, SnapshotError
from repro.obs.tracing import JsonlTraceExporter, Tracer
from repro.sim import faults
from repro.sim.invariants import FreshnessTracker, check_conservation, check_table
from repro.sim.oracle import ModelRow, Oracle
from repro.sim.scheduler import Op, SimConfig, SimPredicate, generate_ops
from repro.storage.schema import Schema


@dataclass(frozen=True)
class Divergence:
    """One step where the two systems (or an invariant) disagreed.

    When the run has forensics enabled, ``lineage`` carries the
    rendered infection chains of the most recent deaths in the
    offending table — the flight-recorder view of *which tuples died,
    why, and who infected them* right before the disagreement.
    """

    step: int
    op: Op
    problems: tuple[str, ...]
    lineage: tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [f"step {self.step} {self.op}:"]
        lines += [f"  - {problem}" for problem in self.problems]
        if self.lineage:
            lines.append("  recent deaths (forensics):")
            for chain in self.lineage:
                lines += [f"    {line}" for line in chain.splitlines()]
        return "\n".join(lines)


@dataclass
class SimReport:
    """The outcome of one simulated run."""

    seed: int
    steps_run: int
    op_counts: Counter = field(default_factory=Counter)
    divergences: list[Divergence] = field(default_factory=list)
    faults_injected: int = 0
    checkpoints: int = 0
    rows_inserted: int = 0
    deaths_recorded: int = 0
    consumes_analyzed: int = 0
    forensic_problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.forensic_problems

    def describe(self) -> str:
        if self.ok:
            status = "ok"
        else:
            status = (
                f"{len(self.divergences)} DIVERGENCES, "
                f"{len(self.forensic_problems)} FORENSIC PROBLEMS"
            )
        line = (
            f"seed {self.seed}: {self.steps_run} steps, "
            f"{self.rows_inserted} rows inserted, "
            f"{self.faults_injected} faults, {self.checkpoints} checkpoints "
            f"-> {status}"
        )
        if self.deaths_recorded:
            line += f" ({self.deaths_recorded} deaths audited)"
        if self.consumes_analyzed:
            line += f" ({self.consumes_analyzed} consumes analyzed)"
        if self.ok:
            return line
        return "\n".join(
            [line]
            + [d.describe() for d in self.divergences]
            + [f"forensics: {p}" for p in self.forensic_problems]
        )


class Simulator:
    """Differential simulation of one :class:`SimConfig`."""

    SCHEMA = Schema.of(k="int", v="int")

    def __init__(
        self,
        config: SimConfig,
        workdir: str | Path | None = None,
        stop_on_divergence: bool = True,
        trace_dir: str | Path | None = None,
        forensics: bool = False,
        analyze: bool = False,
        race_probe: bool = False,
    ) -> None:
        self.config = config
        self.forensics = forensics
        self.analyze = analyze
        self.race_probe = race_probe
        self._own_workdir = workdir is None
        self.workdir = (
            Path(tempfile.mkdtemp(prefix="repro-sim-"))
            if workdir is None
            else Path(workdir)
        )
        self.stop_on_divergence = stop_on_divergence
        self.serial = 0  # stable tuple identity, unique across the run
        self._ckpt_serial = 0
        self.tracker = FreshnessTracker()
        self.report = SimReport(seed=config.seed, steps_run=0)
        self.tracer = Tracer(max_finished=0)
        self.trace_path: Path | None = None
        if trace_dir is not None:
            self.trace_path = Path(trace_dir) / f"seed-{config.seed}.jsonl"
            self.tracer = Tracer(JsonlTraceExporter(self.trace_path))
        self.db = self._build_db()
        self.oracle = Oracle()
        for spec in config.tables:
            self.oracle.create_table(
                spec.name,
                spec.fungus,
                period=spec.period,
                eager=spec.eager,
                lazy_batch=spec.lazy_batch,
            )

    def _build_db(self) -> FungusDB:
        db = FungusDB(seed=self.config.seed)
        if self.forensics:
            db.enable_forensics()
        if self.race_probe:
            # single-threaded run: the probe must never fire; a firing
            # probe here is a real bug (something mutating off-thread)
            db.enable_race_probe()
        for spec in self.config.tables:
            db.create_table(
                spec.name,
                self.SCHEMA,
                fungus=spec.fungus.build(),
                **self._table_options(spec),
            )
        # the db's tracer property fans out to clock, engine and every
        # table — current and future — so sim spans nest in ours
        db.tracer = self.tracer
        return db

    def _table_options(self, spec) -> dict:
        return {
            "period": spec.period,
            "eviction": EvictionMode.EAGER if spec.eager else EvictionMode.LAZY,
            "lazy_batch": spec.lazy_batch,
            "compact_every": spec.compact_every,
        }

    def close(self) -> None:
        """Remove the checkpoint scratch directory (if we created it)."""
        if self._own_workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.tracer.close()

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    def run(self, ops: list[Op] | None = None) -> SimReport:
        """Replay ``ops`` (or the config's generated schedule)."""
        if ops is None:
            ops = generate_ops(self.config)
        try:
            for index, op in enumerate(ops):
                diverged = self.step(index, op)
                if diverged and self.stop_on_divergence:
                    break
            self._forensic_audit()
        finally:
            self.close()
        return self.report

    def _forensic_audit(self) -> None:
        """End-of-run forensic contract check (forensics runs only).

        Every death recorded across the whole run — checkpoint/restore
        cycles included — must carry a known cause and an infection
        chain that resolves back to a seed event (or an uninfected
        insertion). Violations fail the report like a divergence.
        """
        if not self.forensics:
            return
        layer = self.db.forensics
        if layer is None:
            self.report.forensic_problems.append(
                "forensics layer missing after run (lost across a restore?)"
            )
            return
        self.report.deaths_recorded = layer.store.deaths_recorded
        self.report.forensic_problems.extend(layer.audit())

    def step(self, index: int, op: Op) -> bool:
        """Apply one op to both systems, then diff them. True = diverged."""
        self.report.op_counts[op.kind] += 1
        self.report.steps_run += 1
        # a crash is a finding, not a harness failure: corrupted
        # bookkeeping often manifests as a StorageError several ops
        # after the bug, and the report must survive to say so
        try:
            with self.tracer.span(
                "sim.op", kind=op.kind, step=index, table=op.table
            ) as span:
                problems = list(self._apply(op))
                if problems:
                    span.set(problems=len(problems))
        except Exception as exc:
            problems = [f"op raised {type(exc).__name__}: {exc}"]
        try:
            problems += self._differential_check()
        except Exception as exc:
            problems.append(f"state check raised {type(exc).__name__}: {exc}")
        if problems:
            self.report.divergences.append(
                Divergence(
                    index, op, tuple(problems), lineage=self._lineage_dump(op.table)
                )
            )
            return True
        return False

    def _lineage_dump(self, table: str | None) -> tuple[str, ...]:
        """Rendered chains of the last deaths in ``table`` (forensics on)."""
        layer = self.db.forensics
        if layer is None or table is None:
            return ()
        from repro.obs.forensics.render import render_chain

        dumps = []
        for record in layer.deaths(table)[-3:]:
            chain = layer.store.resolve_chain(table, record)
            dumps.append(render_chain(chain, record.fid, by_fid=True))
        return tuple(dumps)

    # ------------------------------------------------------------------
    # op application
    # ------------------------------------------------------------------

    def _apply(self, op: Op) -> list[str]:
        handler = getattr(self, f"_op_{op.kind}", None)
        if handler is None:
            raise ValueError(f"unknown op kind {op.kind!r}")
        return handler(op) or []

    def _op_insert(self, op: Op) -> None:
        for v in op.payload:
            key = self.serial
            self.serial += 1
            self.db.insert(op.table, {"k": key, "v": v})
            self.oracle.insert(op.table, key, {"v": v})

    def _op_tick(self, op: Op) -> None:
        self.db.tick(op.payload)
        self.oracle.tick(op.payload)

    def _op_query(self, op: Op) -> list[str]:
        pred: SimPredicate = op.payload
        result = self.db.query(f"SELECT k FROM {op.table} WHERE {pred.to_sql()}")
        real = [row[0] for row in result.rows]
        model = self.oracle.select_keys(op.table, self._predicate_fn(pred))
        if real != model:
            return [
                f"{op.table}: SELECT WHERE {pred.to_sql()} answered keys "
                f"{real}, model says {model}"
            ]
        return []

    def _op_consume(self, op: Op) -> list[str]:
        pred: SimPredicate = op.payload
        sql = f"CONSUME SELECT k FROM {op.table} WHERE {pred.to_sql()}"
        verdict: str | None = None
        extent_before = 0
        if self.analyze:
            # Tier-B's static verdict is a *promise* about what the
            # execution right below will do — hold it to that promise
            verdict = self.db.explain_consume(sql).verdict
            extent_before = self.db.extent(op.table)
            self.report.consumes_analyzed += 1
        result = self.db.query(sql)
        real = [row[0] for row in result.rows]
        model = self.oracle.consume(op.table, self._predicate_fn(pred))
        problems = []
        if verdict is not None:
            consumed = result.stats.rows_consumed
            if verdict == "invalid":
                problems.append(
                    f"{op.table}: analyzer called {sql!r} invalid but it executed"
                )
            elif verdict == "none" and consumed != 0:
                problems.append(
                    f"{op.table}: verdict none but {consumed} rows consumed "
                    f"by {sql!r}"
                )
            elif verdict == "total" and consumed != extent_before:
                problems.append(
                    f"{op.table}: verdict total but {consumed} of "
                    f"{extent_before} rows consumed by {sql!r}"
                )
        if real != model:
            problems.append(
                f"{op.table}: CONSUME WHERE {pred.to_sql()} removed keys "
                f"{real}, model says σ_P = {model}"
            )
        if result.stats.rows_consumed != len(model):
            problems.append(
                f"{op.table}: rows_consumed={result.stats.rows_consumed}, "
                f"|σ_P| = {len(model)}"
            )
        return problems

    @staticmethod
    def _predicate_fn(pred: SimPredicate):
        return lambda row: pred.matches(row.attrs["v"], row.f)

    def _op_pin(self, op: Op) -> None:
        table = self.db.table(op.table)
        rids = list(table.live_rows())
        if not rids:
            return
        rid = rids[op.payload % len(rids)]
        table.pin(rid)
        self.oracle.pin_key(op.table, table.attributes_of(rid)["k"])

    def _op_unpin(self, op: Op) -> None:
        table = self.db.table(op.table)
        pinned = sorted(table.pinned)
        if not pinned:
            return
        rid = pinned[op.payload % len(pinned)]
        table.unpin(rid)
        self.oracle.unpin_key(op.table, table.attributes_of(rid)["k"])

    # -- checkpointing and crashes -------------------------------------

    def _next_ckpt_dir(self) -> Path:
        self._ckpt_serial += 1
        return self.workdir / f"ckpt-{self._ckpt_serial:04d}"

    def _op_checkpoint_restore(self, op: Op) -> None:
        """A clean crash: checkpoint, lose the process, restore."""
        directory = self._next_ckpt_dir()
        save_checkpoint(self.db, directory)
        self.db = load_checkpoint(
            directory,
            fungi={spec.name: spec.fungus.build() for spec in self.config.tables},
            table_options={
                spec.name: self._table_options(spec) for spec in self.config.tables
            },
            tracer=self.tracer,  # the rebuilt db must keep recording
        )
        if self.race_probe:
            # the restored database is a fresh FungusDB: re-arm the
            # probe so post-restore mutations stay sanitized too
            self.db.enable_race_probe().bind()
        self.report.checkpoints += 1
        # the oracle is untouched: a checkpoint/restore cycle must be
        # lossless, so any difference shows up in the differential diff

    def _op_fault_torn_checkpoint(self, op: Op) -> list[str]:
        directory = self._next_ckpt_dir()
        faults.tear_checkpoint(self.db, directory)
        self.report.faults_injected += 1
        try:
            load_checkpoint(directory)
        except SnapshotError:
            return []
        return ["torn checkpoint (no manifest) loaded without SnapshotError"]

    def _op_fault_truncated_snapshot(self, op: Op) -> list[str]:
        directory = self._next_ckpt_dir()
        injected = faults.truncate_snapshot(
            self.db, directory, op.table, mode=op.payload
        )
        if injected is None:
            return []  # table had no rows to truncate; fault not representable
        self.report.faults_injected += 1
        try:
            load_checkpoint(directory)
        except SnapshotError:
            return []
        return [
            f"snapshot of {op.table!r} truncated ({op.payload}) loaded "
            "without SnapshotError"
        ]

    def _op_fault_subscriber(self, op: Op) -> list[str]:
        """A clock subscriber dies mid-advance: the tick is lost, the
        failure must surface as a chained DecayError, and the database
        must remain fully consistent afterwards."""
        self.db.clock.subscribe(faults.failing_subscriber)
        self.report.faults_injected += 1
        problems = []
        try:
            self.db.tick(1)
            problems.append("failing clock subscriber raised no DecayError")
        except DecayError as exc:
            if not isinstance(exc.__cause__, faults.InjectedSubscriberError):
                problems.append(
                    f"DecayError not chained to the subscriber's exception "
                    f"(cause: {exc.__cause__!r})"
                )
        finally:
            self.db.clock.unsubscribe(faults.failing_subscriber)
        # clock.advance increments time before firing subscribers, so
        # the failed tick is on the clock but no policy ran: a drop
        self.oracle.dropped_tick()
        return problems

    def _op_fault_drop_tick(self, op: Op) -> None:
        """The scheduler lost a tick: time moves, no decay cycle runs."""
        self.db.clock.advance(1)
        self.oracle.dropped_tick()

    def _op_fault_double_tick(self, op: Op) -> None:
        """Duplicate tick delivery: every policy runs again at `now`."""
        now = int(self.db.clock.now)
        for name in sorted(self.db.policies):
            self.db.policies[name].run_tick(now)
        self.report.faults_injected += 1
        self.oracle.duplicate_tick()

    # ------------------------------------------------------------------
    # the differential diff
    # ------------------------------------------------------------------

    def _differential_check(self) -> list[str]:
        problems = []
        if self.db.now != self.oracle.now:
            problems.append(
                f"clock diverged: real {self.db.now}, model {self.oracle.now}"
            )
        for spec in self.config.tables:
            name = spec.name
            table = self.db.table(name)
            model = self.oracle.tables[name]
            problems += self._diff_rows(name, table, model.rows)
            real_exhausted = sorted(
                table.attributes_of(rid)["k"] for rid in table.exhausted
            )
            if real_exhausted != sorted(model.exhausted_keys()):
                problems.append(
                    f"{name}: exhausted keys {real_exhausted} != model "
                    f"{sorted(model.exhausted_keys())}"
                )
            real_pinned = sorted(
                table.attributes_of(rid)["k"] for rid in table.pinned
            )
            if real_pinned != sorted(model.pinned_keys()):
                problems.append(
                    f"{name}: pinned keys {real_pinned} != model "
                    f"{sorted(model.pinned_keys())}"
                )
            problems += check_table(self.db, name)
            problems += check_conservation(self.db, name, model.inserted)
            problems += self.tracker.observe(
                name,
                {
                    table.attributes_of(rid)["k"]: table.freshness(rid)
                    for rid in table.live_rows()
                },
            )
        self.report.rows_inserted = sum(
            t.inserted for t in self.oracle.tables.values()
        )
        return problems

    def _diff_rows(self, name, table, model_rows: list[ModelRow]) -> list[str]:
        real = [
            (row["k"], row["t"], row["f"], row["v"]) for row in table.rows()
        ]
        model = [(row.key, row.t, row.f, row.attrs["v"]) for row in model_rows]
        if real == model:
            return []
        if len(real) != len(model):
            return [
                f"{name}: extent diverged: real {len(real)} rows, "
                f"model {len(model)}"
            ]
        for i, (r, m) in enumerate(zip(real, model)):
            if r != m:
                return [
                    f"{name}: row {i} diverged: real (k,t,f,v)={r}, model={m}"
                ]
        return [f"{name}: rows diverged (unlocated)"]


def run_sim(seed: int, steps: int = 200, **config_kwargs) -> SimReport:
    """One-call entry point: build, run, report."""
    config = SimConfig(seed=seed, steps=steps, **config_kwargs)
    return Simulator(config).run()
