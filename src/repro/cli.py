"""Interactive shell for a FungusDB: ``python -m repro``.

A small REPL for poking at a decaying database::

    fungus> create logs url:str status:int --fungus egi:2,0.25
    fungus> insert logs url=/home status=200
    fungus> gen logs 500
    fungus> tick 10
    fungus> SELECT status, count(*) FROM logs GROUP BY status
    fungus> CONSUME SELECT * FROM logs WHERE status = 500
    fungus> health logs
    fungus> summary logs
    fungus> save /tmp/ckpt        (and later: load /tmp/ckpt)

Every command is implemented on :class:`FungusShell.execute_line`,
which returns the output string — the tests drive it directly, the
``main`` loop just wires it to stdin/stdout.
"""

from __future__ import annotations

import random
import shlex
import sys
from typing import Callable

from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.db import FungusDB
from repro.core.fungus import Fungus
from repro.errors import FungusError
from repro.obs.forensics import DEFAULT_RULES
from repro.workload.trace import TraceRecorder, replay_trace
from repro.fungi import (
    BlueCheeseFungus,
    EGIFungus,
    ExponentialDecayFungus,
    LinearDecayFungus,
    NullFungus,
    RetentionFungus,
    SigmoidDecayFungus,
)
from repro.storage.schema import ColumnDef, DataType, Schema

HELP = """\
commands:
  create <table> <col:type>...  [--fungus SPEC]   make a decaying table
  insert <table> <col=value>...                   insert one row
  gen <table> <n>                                 insert n random rows
  tick [n]                                        advance the decay clock
  tables                                          list tables and extents
  health <table>                                  rot metrics
  metrics [prefix]                                Prometheus-style exposition
  queries [seconds|calls|rows] [top-n]            hottest statement shapes
                                                  (plan-vs-actual aggregates)
  summary <table>                                 what has been distilled
  save <dir> / load <dir>                         checkpoint the database
  why <table> <rowid> [--fid]                     why did that tuple die?
                                                  (infection lineage back to
                                                  the seed; --fid looks up by
                                                  stable forensic id)
  alerts                                          firing rot alerts + log
  alerts rules | add <rule> | rm <rule>           manage alert rules, e.g.
                                                  alerts add eviction_rate > 2 for 5
  alerts spots <table>                            reconstructed rot spots
  explain <statement>                             SQL EXPLAIN: the plan with
                                                  row estimates (explain
                                                  CONSUME ... runs
                                                  the Law-2 footprint
                                                  analysis without consuming)
  lint                                            rot-safety rule catalogue
  trace start | trace stop <file> | trace replay <file>
                                                  record/replay workloads
  help / quit                                     this text / leave
anything starting with SELECT, CONSUME, INSERT, DELETE or EXPLAIN runs
as SQL (EXPLAIN [CONSUME] SELECT ... plans/analyzes without executing).
fungus SPECs: none | egi[:seeds,rate] | retention:age | linear:rate |
              exp:halflife | sigmoid:midlife[,steepness] |
              bluecheese[:spots,rate]
column types: int float str bool
(live rot dashboard: python -m repro obs --help)
"""


def parse_fungus_spec(spec: str) -> Fungus:
    """Turn a CLI fungus spec like ``egi:2,0.25`` into a Fungus."""
    name, _, args_text = spec.partition(":")
    args = [a for a in args_text.split(",") if a] if args_text else []
    try:
        if name == "none":
            return NullFungus()
        if name == "egi":
            seeds = int(args[0]) if len(args) > 0 else 2
            rate = float(args[1]) if len(args) > 1 else 0.25
            return EGIFungus(seeds_per_cycle=seeds, decay_rate=rate)
        if name == "retention":
            return RetentionFungus(max_age=float(args[0]))
        if name == "linear":
            return LinearDecayFungus(rate=float(args[0]))
        if name == "exp":
            return ExponentialDecayFungus(half_life=float(args[0]))
        if name == "sigmoid":
            midlife = float(args[0])
            steepness = float(args[1]) if len(args) > 1 else 0.5
            return SigmoidDecayFungus(midlife=midlife, steepness=steepness)
        if name == "bluecheese":
            spots = int(args[0]) if len(args) > 0 else 3
            rate = float(args[1]) if len(args) > 1 else 0.05
            return BlueCheeseFungus(max_spots=spots, base_rate=rate)
    except (IndexError, ValueError) as exc:
        raise FungusError(f"bad fungus spec {spec!r}: {exc}") from exc
    raise FungusError(f"unknown fungus {name!r}; see 'help'")


def _parse_column(text: str) -> ColumnDef:
    name, sep, type_name = text.partition(":")
    if not sep:
        raise FungusError(f"column {text!r} must look like name:type")
    return ColumnDef(name, DataType.from_name(type_name))


def _parse_value(text: str, dtype: DataType):
    if dtype is DataType.INT:
        return int(text)
    if dtype in (DataType.FLOAT, DataType.TIMESTAMP):
        return float(text)
    if dtype is DataType.BOOL:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise FungusError(f"bad bool literal {text!r}")
    return text


class FungusShell:
    """One REPL session over one FungusDB."""

    def __init__(self, seed: int = 0) -> None:
        self.db = FungusDB(seed=seed)
        self.db.enable_telemetry()
        self.db.enable_forensics(rules=DEFAULT_RULES)
        self.db.enable_querystats()
        self._rng = random.Random(seed)
        self._commands: dict[str, Callable[[list[str]], str]] = {
            "create": self._cmd_create,
            "insert": self._cmd_insert,
            "gen": self._cmd_gen,
            "tick": self._cmd_tick,
            "tables": self._cmd_tables,
            "health": self._cmd_health,
            "metrics": self._cmd_metrics,
            "queries": self._cmd_queries,
            "summary": self._cmd_summary,
            "save": self._cmd_save,
            "load": self._cmd_load,
            "why": self._cmd_why,
            "alerts": self._cmd_alerts,
            "explain": self._cmd_explain,
            "lint": self._cmd_lint,
            "trace": self._cmd_trace,
            "help": lambda args: HELP,
        }
        self._recorder: TraceRecorder | None = None

    def execute_line(self, line: str) -> str:
        """Run one input line; returns the text to print."""
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        upper = line.upper()
        # "INSERT INTO" is SQL; bare "insert <table> col=val" is the
        # shell's own command, so require the INTO to disambiguate.
        if upper.startswith(
            ("SELECT", "CONSUME", "INSERT INTO", "DELETE FROM", "EXPLAIN ")
        ):
            return self._run_query(line)
        try:
            parts = shlex.split(line)
        except ValueError as exc:
            return f"error: {exc}"
        command, args = parts[0].lower(), parts[1:]
        handler = self._commands.get(command)
        if handler is None:
            return f"error: unknown command {command!r}; try 'help'"
        try:
            return handler(args)
        except FungusError as exc:
            return f"error: {exc}"
        except (ValueError, IndexError) as exc:
            return f"error: {exc}"

    # -- commands -------------------------------------------------------

    def _run_query(self, sql: str) -> str:
        try:
            result = self.db.query(sql)
        except FungusError as exc:
            return f"error: {exc}"
        if result.columns == ("explain",):
            # EXPLAIN output is plan/analysis text, not a relation —
            # and it executed nothing, so keep it out of the trace
            return "\n".join(str(row[0]) for row in result.rows)
        if self._recorder is not None:
            self._recorder.query(sql)
        lines = [result.pretty()]
        lines.append(f"({len(result)} rows)")
        if result.stats.rows_consumed:
            lines.append(f"consumed {result.stats.rows_consumed} tuples (Law 2)")
        return "\n".join(lines)

    def _cmd_create(self, args: list[str]) -> str:
        fungus_spec = "none"
        if "--fungus" in args:
            idx = args.index("--fungus")
            if idx + 1 >= len(args):
                return "error: --fungus needs a spec"
            fungus_spec = args[idx + 1]
            args = args[:idx] + args[idx + 2:]
        if len(args) < 2:
            return "error: usage: create <table> <col:type>... [--fungus SPEC]"
        name, columns = args[0], args[1:]
        schema = Schema([_parse_column(c) for c in columns])
        self.db.create_table(name, schema, fungus=parse_fungus_spec(fungus_spec))
        return f"created table {name!r} with fungus {fungus_spec}"

    def _cmd_insert(self, args: list[str]) -> str:
        if len(args) < 2:
            return "error: usage: insert <table> <col=value>..."
        name = args[0]
        table = self.db.table(name)
        row = {}
        for pair in args[1:]:
            col, sep, value = pair.partition("=")
            if not sep:
                return f"error: expected col=value, got {pair!r}"
            row[col] = _parse_value(value, table.attributes.column(col).dtype)
        rid = self.db.insert(name, row)
        if self._recorder is not None:
            self._recorder.insert(name, row)
        return f"inserted rid {rid}"

    def _cmd_gen(self, args: list[str]) -> str:
        if len(args) != 2:
            return "error: usage: gen <table> <n>"
        name, count = args[0], int(args[1])
        table = self.db.table(name)
        rows = [self._random_row(table.attributes) for _ in range(count)]
        self.db.insert_many(name, rows)
        if self._recorder is not None:
            for row in rows:
                self._recorder.insert(name, row)
        return f"inserted {count} random rows into {name!r} (extent {self.db.extent(name)})"

    def _random_row(self, attributes: Schema) -> dict:
        row = {}
        for col in attributes:
            if col.dtype is DataType.INT:
                row[col.name] = self._rng.randrange(100)
            elif col.dtype in (DataType.FLOAT, DataType.TIMESTAMP):
                row[col.name] = round(self._rng.uniform(0, 100), 3)
            elif col.dtype is DataType.BOOL:
                row[col.name] = self._rng.random() < 0.5
            else:
                row[col.name] = f"v{self._rng.randrange(20)}"
        return row

    def _cmd_tick(self, args: list[str]) -> str:
        ticks = int(args[0]) if args else 1
        self.db.tick(ticks)
        if self._recorder is not None:
            self._recorder.advance(ticks)
        extents = ", ".join(f"{n}={self.db.extent(n)}" for n in sorted(self.db.tables))
        return f"clock at {self.db.now:g}; extents: {extents or '(no tables)'}"

    def _cmd_tables(self, args: list[str]) -> str:
        if not self.db.tables:
            return "(no tables)"
        lines = []
        for name in sorted(self.db.tables):
            table = self.db.tables[name]
            lines.append(
                f"{name}: extent={len(table)} "
                f"columns={list(table.attributes.names)} "
                f"fungus={self.db.policies[name].fungus.name}"
            )
        return "\n".join(lines)

    def _cmd_health(self, args: list[str]) -> str:
        if len(args) != 1:
            return "error: usage: health <table>"
        return self.db.health(args[0]).describe()

    def _cmd_metrics(self, args: list[str]) -> str:
        if len(args) > 1:
            return "error: usage: metrics [name-prefix]"
        text = self.db.telemetry.exposition()
        if args:
            prefix = args[0]
            kept = []
            for line in text.splitlines():
                if line.startswith(("# HELP ", "# TYPE ")):
                    name = line.split(" ", 3)[2]
                else:
                    name = line.partition("{")[0].partition(" ")[0]
                if name.startswith(prefix):
                    kept.append(line)
            if not kept:
                return f"(no metrics match {prefix!r})"
            text = "\n".join(kept)
        return text.rstrip("\n")

    def _cmd_queries(self, args: list[str]) -> str:
        if len(args) > 2:
            return "error: usage: queries [seconds|calls|rows] [top-n]"
        by = args[0] if args else "seconds"
        top = int(args[1]) if len(args) == 2 else 10
        store = self.db.querystats
        if store is None:
            return "error: query statistics are not enabled"
        from repro.obs.querystats import render_queries

        lines = render_queries(store.top(top, by=by))
        if store.evicted_total:
            lines.append(f"({store.evicted_total} cold fingerprints evicted)")
        return "\n".join(lines)

    def _cmd_summary(self, args: list[str]) -> str:
        if len(args) != 1:
            return "error: usage: summary <table>"
        merged = self.db.merged_summary(args[0])
        if merged is None:
            return "(nothing distilled yet)"
        lines = [merged.describe()]
        for col_name, col in merged.columns.items():
            if col.is_numeric and col.moments is not None and col.moments.count:
                lines.append(
                    f"  {col_name}: mean={col.estimate_mean():.4g} "
                    f"p50={col.estimate_quantile(0.5):.4g} "
                    f"distinct~{col.estimate_distinct():.0f}"
                )
            else:
                lines.append(f"  {col_name}: distinct~{col.estimate_distinct():.0f}")
        return "\n".join(lines)

    def _cmd_explain(self, args: list[str]) -> str:
        if not args:
            return "error: usage: explain <statement>"
        return self._run_query("EXPLAIN " + " ".join(args))

    def _cmd_lint(self, args: list[str]) -> str:
        from repro.lint import CATALOGUE_VERSION, default_rules

        lines = [f"repro.lint rule catalogue v{CATALOGUE_VERSION}:"]
        for rule in default_rules():
            lines.append(f"  {rule.id}  {rule.title}")
        lines.append("run it: python -m repro.lint [paths]")
        return "\n".join(lines)

    def _cmd_trace(self, args: list[str]) -> str:
        if not args:
            return "error: usage: trace start | trace stop <file> | trace replay <file>"
        action = args[0]
        if action == "start":
            if self._recorder is not None:
                return "error: already recording (trace stop <file> first)"
            self._recorder = TraceRecorder()
            return "recording workload (inserts, queries, ticks)"
        if action == "stop":
            if len(args) != 2:
                return "error: usage: trace stop <file>"
            if self._recorder is None:
                return "error: not recording"
            events = self._recorder.save(args[1])
            self._recorder = None
            return f"wrote {events} events to {args[1]}"
        if action == "replay":
            if len(args) != 2:
                return "error: usage: trace replay <file>"
            counts = replay_trace(args[1], self.db)
            return (
                f"replayed {counts['insert']} inserts, {counts['query']} queries, "
                f"{counts['advance']} ticks (clock now {self.db.now:g})"
            )
        return f"error: unknown trace action {action!r}"

    def _cmd_save(self, args: list[str]) -> str:
        if len(args) != 1:
            return "error: usage: save <dir>"
        tables = save_checkpoint(self.db, args[0])
        return f"saved {len(tables)} table(s) to {args[0]}"

    def _cmd_load(self, args: list[str]) -> str:
        if len(args) != 1:
            return "error: usage: load <dir>"
        old_db = self.db
        self.db = load_checkpoint(args[0], telemetry=True)
        # the restored forensics (or a fresh layer) closes out the live
        # session being replaced: its rows die with cause "restored-over"
        forensics = self.db.forensics
        if forensics is None:
            forensics = self.db.enable_forensics(rules=DEFAULT_RULES)
        overwritten = forensics.record_restored_over(old_db)
        if self.db.querystats is None:  # checkpoint predates the store
            self.db.enable_querystats()
        old_db.disable_forensics()
        old_db.disable_telemetry()
        suffix = (
            f"; {overwritten} live tuple(s) of the previous session recorded "
            f"as restored-over" if overwritten else ""
        )
        return (
            f"loaded {len(self.db.tables)} table(s); clock at {self.db.now:g} "
            f"(fungi reset to none — recreate policies as needed){suffix}"
        )

    def _cmd_why(self, args: list[str]) -> str:
        by_fid = "--fid" in args
        args = [a for a in args if a != "--fid"]
        if len(args) != 2:
            return "error: usage: why <table> <rowid> [--fid]"
        forensics = self.db.forensics
        if forensics is None:
            return "error: forensics not enabled on this database"
        return forensics.why_text(args[0], int(args[1]), by_fid=by_fid)

    def _cmd_alerts(self, args: list[str]) -> str:
        forensics = self.db.forensics
        if forensics is None:
            return "error: forensics not enabled on this database"
        if not args:
            return forensics.alerts_text()
        action = args[0]
        if action == "rules":
            rules = forensics.rules
            if not rules:
                return "no alert rules armed"
            return "\n".join(f"{rule.text}" for rule in rules)
        if action == "add":
            if len(args) < 2:
                return "error: usage: alerts add <signal> <op> <threshold> [for <N>]"
            rule = forensics.add_rule(" ".join(args[1:]))
            return f"armed rule: {rule.text}"
        if action in ("rm", "remove"):
            if len(args) < 2:
                return "error: usage: alerts rm <rule text>"
            text = " ".join(args[1:])
            if forensics.remove_rule(text):
                return f"removed rule: {' '.join(text.split())}"
            return f"error: no such rule {text!r}"
        if action == "spots":
            if len(args) != 2:
                return "error: usage: alerts spots <table>"
            return forensics.spots_text(args[1])
        return (
            f"error: unknown alerts action {action!r}; "
            f"try: alerts | alerts rules | alerts add <rule> | "
            f"alerts rm <rule> | alerts spots <table>"
        )


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` (REPL, or ``obs`` dashboard)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs":
        from repro.obs.dashboard import main as obs_main

        return obs_main(argv[1:])
    shell = FungusShell()
    print("Big Data Space Fungus shell — 'help' for commands, 'quit' to leave")
    while True:
        try:
            line = input("fungus> ")
        except EOFError:
            print()
            return 0
        if line.strip().lower() in ("quit", "exit"):
            return 0
        output = shell.execute_line(line)
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
