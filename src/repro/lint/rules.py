"""The default RS rule set.

Each rule guards an invariant the decaying-relation semantics depend
on; the catalogue (ids, rationale, examples) is documented in
DESIGN.md's "Static analysis" section. ``CATALOGUE_VERSION`` bumps
whenever a rule is added, removed, or materially changes meaning.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import ClassVar, Iterator, Sequence

from repro.lint.catalogue import load_metric_catalogue
from repro.lint.engine import Finding, ModuleSource, Rule

CATALOGUE_VERSION = "1.9"

#: packages where simulated time and injected randomness are mandatory
RESTRICTED_PACKAGES = ("core", "fungi", "query", "sim", "storage")

#: the linter's own process-local exposition series — documented in
#: DESIGN.md prose, deliberately outside the event-bus catalogue table
#: (it is never registered on a database's collector).
EXTRA_CATALOGUED = frozenset({"repro_lint_findings_total"})


def metric_name_resolves(
    name: str,
    catalogue: frozenset[str],
    exposition_suffixes: Sequence[str] = (),
) -> bool:
    """Whether ``name`` is a catalogued series (or EXTRA_CATALOGUED).

    With ``exposition_suffixes``, names a histogram family fans out
    into at exposition time (``_bucket``/``_sum``/``_count``) resolve
    against the base family. Shared by RS004 (registrations), RS010
    (references) and the Tier-C ``--prom`` writer.
    """
    if name in catalogue or name in EXTRA_CATALOGUED:
        return True
    for suffix in exposition_suffixes:
        if name.endswith(suffix) and name[: -len(suffix)] in catalogue:
            return True
    return False


def _in_restricted_package(path: Path) -> bool:
    posix = path.as_posix()
    return any(f"repro/{package}/" in posix for package in RESTRICTED_PACKAGES)


#: node types whose bodies re-execute per element
_LOOP_NODES = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """child -> parent for every node in ``tree``."""
    parents: dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _inside_loop(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Whether ``node`` sits lexically inside a loop of its function."""
    current = node
    while current in parents:
        current = parents[current]
        if isinstance(current, _LOOP_NODES):
            return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


def _dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class NoWallClockRule(Rule):
    """RS001 — decay logic must run on the injected logical clock."""

    id: ClassVar[str] = "RS001"
    title: ClassVar[str] = "no wall-clock time in decay-critical packages"
    rationale: ClassVar[str] = (
        "Law 1 ticks on a logical clock; wall-clock reads make decay "
        "non-reproducible and break trace replay and model checking."
    )

    BANNED_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.sleep",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "date.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    BANNED_IMPORT_LEAVES = frozenset(
        {
            "time",
            "time_ns",
            "monotonic",
            "monotonic_ns",
            "perf_counter",
            "perf_counter_ns",
            "process_time",
            "sleep",
            "now",
            "utcnow",
            "today",
        }
    )

    def applies_to(self, path: Path) -> bool:
        return _in_restricted_package(path)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None and (
                    dotted in self.BANNED_CALLS
                    or ".".join(dotted.split(".")[-2:]) in self.BANNED_CALLS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call {dotted}() in a decay-critical "
                        "package; use the injected LogicalClock",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("time", "datetime"):
                    for alias in node.names:
                        if alias.name in self.BANNED_IMPORT_LEAVES:
                            yield self.finding(
                                module,
                                node,
                                f"importing {alias.name} from {node.module} "
                                "exposes wall-clock time to decay logic",
                            )


class SeededRandomRule(Rule):
    """RS002 — only injected, seeded ``random.Random`` instances."""

    id: ClassVar[str] = "RS002"
    title: ClassVar[str] = "no module-level random; seed a Random instance"
    rationale: ClassVar[str] = (
        "The shared module-level generator makes fungal spread depend "
        "on import order and unrelated callers; every stochastic "
        "component takes a seeded random.Random."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "random"
                    and func.attr != "Random"
                ):
                    yield self.finding(
                        module,
                        node,
                        f"module-level random.{func.attr}() call; use an "
                        "injected seeded random.Random instance",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.finding(
                            module,
                            node,
                            f"importing {alias.name} from random binds the "
                            "shared module-level generator",
                        )


class ChainedRaiseRule(Rule):
    """RS003 — ``raise`` inside ``except`` must chain with ``from``."""

    id: ClassVar[str] = "RS003"
    title: ClassVar[str] = "raise inside except must chain with from"
    rationale: ClassVar[str] = (
        "Rot forensics walks __cause__ chains to attribute failures; an "
        "unchained raise inside a handler severs the provenance trail."
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(module, node)

    def _check_handler(
        self, module: ModuleSource, handler: ast.ExceptHandler
    ) -> Iterator[Finding]:
        for raise_node in self._raises(handler.body):
            if raise_node.exc is None or raise_node.cause is not None:
                continue
            # re-raising the caught exception object itself keeps its
            # provenance; only *new* exceptions need an explicit chain
            if (
                isinstance(raise_node.exc, ast.Name)
                and handler.name is not None
                and raise_node.exc.id == handler.name
            ):
                continue
            yield self.finding(
                module,
                raise_node,
                "raise inside except without 'from'; chain the cause "
                "(or use 'from None' to suppress it deliberately)",
            )

    def _raises(self, body: Sequence[ast.stmt]) -> Iterator[ast.Raise]:
        """Raises lexically in an except body, skipping nested scopes
        and nested handlers (those get their own visit)."""
        for stmt in body:
            if isinstance(stmt, ast.Raise):
                yield stmt
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            elif isinstance(stmt, ast.Try):
                yield from self._raises(stmt.body)
                yield from self._raises(stmt.orelse)
                yield from self._raises(stmt.finalbody)
            elif isinstance(stmt, (ast.If, ast.For, ast.AsyncFor, ast.While)):
                yield from self._raises(stmt.body)
                yield from self._raises(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                yield from self._raises(stmt.body)


class CataloguedMetricRule(Rule):
    """RS004 — metric names are literal ``repro_*`` catalogue entries."""

    id: ClassVar[str] = "RS004"
    title: ClassVar[str] = "metric names must be catalogued repro_* literals"
    rationale: ClassVar[str] = (
        "Dashboards and the catalogue-consistency test key on exact "
        "series names; dynamic or undocumented names drift silently."
    )

    METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "ewma"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        catalogue = load_metric_catalogue(module.path)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in self.METRIC_METHODS
                or len(node.args) < 2
            ):
                continue
            name_arg = node.args[0]
            if not (
                isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
            ):
                yield self.finding(
                    module,
                    name_arg,
                    f"metric name passed to .{func.attr}() must be a "
                    "string literal",
                )
                continue
            name = name_arg.value
            if not name.startswith("repro_"):
                yield self.finding(
                    module,
                    name_arg,
                    f"metric name {name!r} is outside the repro_ namespace",
                )
            elif catalogue is not None and not metric_name_resolves(
                name, catalogue
            ):
                yield self.finding(
                    module,
                    name_arg,
                    f"metric name {name!r} is not in DESIGN.md's metric "
                    "catalogue table",
                )


class SanctionedFreshnessRule(Rule):
    """RS005 — freshness is written only by the table's mutators."""

    id: ClassVar[str] = "RS005"
    title: ClassVar[str] = "no direct freshness writes outside core/table.py"
    rationale: ClassVar[str] = (
        "The sanctioned mutators clamp f into [0, 1] and publish decay "
        "events; a raw storage write skips both, corrupting the domain "
        "invariant Tier-B analysis and the metrics rely on."
    )

    SANCTIONED_FILE = "core/table.py"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.path.as_posix().endswith(self.SANCTIONED_FILE):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr != "update"
                or len(node.args) != 3
            ):
                continue
            column = node.args[1]
            if self._is_freshness_column(column):
                yield self.finding(
                    module,
                    node,
                    "direct freshness write via storage.update(); go "
                    "through the table's sanctioned mutators",
                )

    @staticmethod
    def _is_freshness_column(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and node.value == "f":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "freshness_column":
            return True
        if isinstance(node, ast.Name) and node.id == "freshness_column":
            return True
        return False


class PublishedEventRule(Rule):
    """RS006 — constructed events must reach a ``publish`` call.

    ``publish_lazy`` counts: an event built inside its factory callback
    is published exactly when someone listens, and still lands in the
    bus's count ledger when nobody does."""

    id: ClassVar[str] = "RS006"
    title: ClassVar[str] = "event constructed but never published"
    rationale: ClassVar[str] = (
        "An event instantiated and dropped is an invisible state "
        "change: metrics, forensics and probes all miss it."
    )

    NON_EVENT_NAMES = frozenset({"Event", "EventBus"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        event_classes = self._imported_event_classes(module.tree)
        if not event_classes:
            return
        parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(module.tree):
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
        published_names = self._published_names(module.tree)
        escaped_names = self._escaped_names(module.tree)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in event_classes
            ):
                if self._reaches_publish(
                    node, parents, published_names | escaped_names
                ):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"{node.func.id} constructed but never published to "
                    "the event bus",
                )

    def _imported_event_classes(self, tree: ast.Module) -> frozenset[str]:
        names: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.module == "repro.core.events"
            ):
                for alias in node.names:
                    if alias.name not in self.NON_EVENT_NAMES:
                        names.add(alias.asname or alias.name)
        return frozenset(names)

    @staticmethod
    def _published_names(tree: ast.Module) -> frozenset[str]:
        """Names that appear inside the arguments of a publish call."""
        names: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("publish", "publish_lazy")
            ):
                values = list(node.args) + [kw.value for kw in node.keywords]
                for value in values:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
        return frozenset(names)

    @staticmethod
    def _escaped_names(tree: ast.Module) -> frozenset[str]:
        """Names returned or yielded — they escape to a caller that
        owns the publish decision."""
        names: set[str] = set()
        for node in ast.walk(tree):
            value: ast.expr | None = None
            if isinstance(node, ast.Return):
                value = node.value
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = node.value
            if value is not None:
                for sub in ast.walk(value):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        return frozenset(names)

    @staticmethod
    def _reaches_publish(
        node: ast.Call,
        parents: dict[ast.AST, ast.AST],
        ok_names: frozenset[str],
    ) -> bool:
        current: ast.AST = node
        while current in parents:
            parent = parents[current]
            if isinstance(parent, ast.Call):
                func = parent.func
                if isinstance(func, ast.Attribute) and func.attr in (
                    "publish",
                    "publish_lazy",
                ):
                    return True
            elif isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom)):
                return True
            elif isinstance(parent, ast.Assign):
                targets = [
                    t.id for t in parent.targets if isinstance(t, ast.Name)
                ]
                return any(t in ok_names for t in targets)
            elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            current = parent
        return False


class BatchMutatorRule(Rule):
    """RS007 — hot decay, distill and observer paths use batch calls, not per-row loops."""

    id: ClassVar[str] = "RS007"
    title: ClassVar[str] = (
        "no per-row freshness, distill, observer or insert loops on the write path"
    )
    rationale: ClassVar[str] = (
        "A scalar set_freshness/decay call inside a loop re-pays "
        "validation, pin checks and event publication per row; the "
        "batch mutators (decay_many, scale_many, set_freshness_many) "
        "do one vectorized pass and publish one coalesced event. "
        "Likewise a row_dict/add_row per dying row builds a dict and "
        "hashes every cell three times; TableSummary.add_columns takes "
        "one Table.gather per column and hashes each cell once. The "
        "observers on top of a vectorized mutation (metrics collector, "
        "health report, planner statistics) are held to the same "
        "standard: expanding a TupleDecayedBatch or walking "
        "freshness_values/column_values through band_of per row costs "
        "more than the decay it measures. Two places are outside this "
        "rule's scope: the forensics collector, which expands each "
        "decay batch per row by contract because the LineageStore keeps "
        "one biography per tuple, and repro/sketch/, whose per-value "
        "loops are the sketches' own arithmetic (the streaming "
        "histogram merges one value at a time). The row going in is "
        "held to it "
        "too: a table append/insert/restore or an event publish per "
        "row of a batch re-pays coercion, one append per column, every "
        "index update and one event per row, and leaves half a batch "
        "behind when a later row is bad; append_many/insert_many/"
        "restore_many coerce by column, extend each column once and "
        "publish one TupleInsertedBatch."
    )

    SCALAR_MUTATORS = frozenset(
        {"set_freshness", "decay", "scale_freshness", "_decay"}
    )
    ROW_DISTILLERS = frozenset({"add_row", "row_dict"})
    OBSERVER_ROW_READS = frozenset(
        {"expand", "freshness_values", "column_values", "band_of"}
    )
    ROW_WRITES = frozenset({"append", "insert", "restore"})
    ROW_PUBLISHES = frozenset({"publish", "publish_lazy"})
    #: how the write-path modules name a table; their lists (``runs``,
    #: ``matches``, ``written``...) append per element freely
    TABLE_RECEIVERS = ("self", "table", "storage", "db")

    @classmethod
    def _scope(cls, path: Path) -> tuple[frozenset[str], str] | None:
        """The per-row calls banned in ``path`` and what replaces them."""
        posix = path.as_posix()
        if "repro/fungi/" in posix or posix.endswith("repro/core/policy.py"):
            return cls.SCALAR_MUTATORS, (
                "use the batch mutators (decay_many/scale_many/"
                "set_freshness_many) instead"
            )
        if posix.endswith(("repro/core/distill.py", "repro/core/db.py")):
            return cls.ROW_DISTILLERS, (
                "gather each column once (Table.gather) and feed "
                "TableSummary.add_columns instead"
            )
        if posix.endswith(
            (
                "repro/obs/collector.py",
                "repro/core/health.py",
                "repro/storage/stats.py",
            )
        ):
            return cls.OBSERVER_ROW_READS, (
                "read the column arrays instead (the batch event's "
                "old/new freshness as arrays, DecayingTable.band_counts, "
                "Table.mask_data + live_mask)"
            )
        if posix.endswith(
            (
                "repro/storage/table.py",
                "repro/core/table.py",
                "repro/core/checkpoint.py",
                "repro/query/executor.py",
            )
        ):
            return cls.ROW_WRITES | cls.ROW_PUBLISHES, (
                "write the batch once (append_many/insert_many/"
                "restore_many: coerced by column, one extend per column, "
                "one TupleInsertedBatch) instead"
            )
        return None

    @classmethod
    def _on_table(cls, func: ast.expr) -> bool:
        """Whether a ``.append``/``.insert``/``.restore`` receiver names a
        table (``self``, ``table``, ``self.storage``, ``snapshot_table``...)."""
        receiver = getattr(func, "value", None)
        name = getattr(receiver, "attr", None) or getattr(receiver, "id", "")
        return name.endswith(cls.TABLE_RECEIVERS)

    @staticmethod
    def _publishes_tuple_event(node: ast.Call) -> bool:
        """Whether a ``publish``/``publish_lazy`` call names a per-tuple
        event (``Tuple*`` built inline or passed as the type) — a
        ``RestoreCompleted`` per table of a loop over tables is fine."""
        if not node.args:
            return False
        first = node.args[0]
        if isinstance(first, ast.Call):
            first = first.func
        name = getattr(first, "attr", None) or getattr(first, "id", "")
        return name.startswith("Tuple")

    def applies_to(self, path: Path) -> bool:
        return self._scope(path) is not None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        scope = self._scope(module.path)
        if scope is None:
            return
        banned, advice = scope
        parents = _parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # methods by attribute, plain functions (band_of) by name
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called in self.ROW_WRITES and not self._on_table(func):
                continue
            if called in self.ROW_PUBLISHES and not self._publishes_tuple_event(node):
                continue
            if called in banned and _inside_loop(node, parents):
                yield self.finding(
                    module, node, f"per-row {called}() inside a loop; {advice}"
                )


class BlockingAsyncRule(Rule):
    """RS008 — no blocking I/O inside ``async def`` under the server."""

    id: ClassVar[str] = "RS008"
    title: ClassVar[str] = "no blocking I/O inside async server code"
    rationale: ClassVar[str] = (
        "The server's event loop multiplexes every connection on one "
        "thread; a time.sleep, synchronous socket call or file "
        "read/write inside an async def stalls all of them at once. "
        "Blocking work belongs on the engine worker (run_in_executor) "
        "or behind asyncio's own primitives."
    )

    #: pathlib's blocking file I/O methods (the asyncio StreamWriter's
    #: .write() is a buffer append, not I/O, and stays legal)
    BLOCKING_FILE_METHODS = frozenset(
        {"write_text", "write_bytes", "read_text", "read_bytes"}
    )

    def applies_to(self, path: Path) -> bool:
        return "repro/server/" in path.as_posix()

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                for call, reason in self._blocking_calls(node):
                    yield self.finding(module, call, reason)

    def _blocking_calls(
        self, fn: ast.AsyncFunctionDef
    ) -> Iterator[tuple[ast.Call, str]]:
        """Blocking calls lexically inside ``fn``'s own async body.

        Nested function definitions are skipped: a sync helper defined
        inline runs on whichever thread later calls it, and a nested
        async def gets its own visit from the outer walk.
        """
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                reason = self._blocking_reason(node)
                if reason is not None:
                    yield node, reason
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_reason(self, node: ast.Call) -> str | None:
        dotted = _dotted_name(node.func)
        if dotted == "time.sleep":
            return (
                "time.sleep() inside async def stalls the event loop; "
                "use asyncio.sleep()"
            )
        if dotted is not None and dotted.startswith("socket."):
            return (
                f"synchronous socket call {dotted}() inside async def; "
                "use asyncio streams"
            )
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            return (
                "blocking file open() inside async def; do file I/O on "
                "the worker via run_in_executor"
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self.BLOCKING_FILE_METHODS
        ):
            return (
                f"blocking file I/O .{node.func.attr}() inside async "
                "def; do file I/O on the worker via run_in_executor"
            )
        return None


class SpanContextManagerRule(Rule):
    """RS009 — spans must be opened via the context-manager API."""

    id: ClassVar[str] = "RS009"
    title: ClassVar[str] = "spans open via with, never manually"
    rationale: ClassVar[str] = (
        "A span opened outside a with block leaks on any exception "
        "path: it never closes, never exports, and poisons interval "
        "nesting for every later span in the trace. The opener methods "
        "(span/root_span/stage_span/anchor_span) must be the context "
        "expression of a with statement; only the one-shot record_span "
        "— which returns an already-finished span — may stand alone."
    )

    #: tracer methods that return an *open* span needing a close
    OPENERS = frozenset({"span", "root_span", "stage_span", "anchor_span"})

    def applies_to(self, path: Path) -> bool:
        posix = path.as_posix()
        return "repro/server/" in posix or "repro/obs/" in posix

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        managed: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed.add(id(item.context_expr))
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.OPENERS
                and id(node) not in managed
            ):
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}() opens a span outside a with "
                    "block; wrap it (with tracer."
                    f"{node.func.attr}(...) as span:) so every exit "
                    "path closes it",
                )


class QueryMetricReferenceRule(Rule):
    """RS010 — ``repro_query_*`` references resolve in the catalogue.

    RS004 guards the *registration* calls; this rule guards every other
    place a query-observability series name appears — dashboards,
    scrape helpers, ``registry.value(...)`` lookups. A reference to a
    family the catalogue does not document is a dashboard that will
    silently read zeros forever."""

    id: ClassVar[str] = "RS010"
    title: ClassVar[str] = "repro_query_* references must be catalogued literals"
    rationale: ClassVar[str] = (
        "The repro_query_* families are the plan-vs-actual contract "
        "between the executor and every consumer; a misspelled or "
        "dynamically built series name reads as an empty family, not "
        "an error, so drift must be caught statically."
    )

    #: exposition-only suffixes a histogram family fans out into
    EXPOSITION_SUFFIXES = ("_bucket", "_sum", "_count")
    PREFIX = "repro_query_"
    NAME_SHAPE: ClassVar[re.Pattern[str]] = re.compile(r"repro_query_[a-z0-9_]+")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        catalogue = load_metric_catalogue(module.path)
        name_shape = self.NAME_SHAPE
        for node in ast.walk(module.tree):
            if isinstance(node, ast.JoinedStr):
                head = node.values[0] if node.values else None
                if (
                    isinstance(head, ast.Constant)
                    and isinstance(head.value, str)
                    and head.value.startswith(self.PREFIX)
                ):
                    yield self.finding(
                        module,
                        node,
                        "repro_query_* series name built with an f-string; "
                        "spell the full name as a literal so the catalogue "
                        "check can see it",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                left = node.left
                if (
                    isinstance(left, ast.Constant)
                    and isinstance(left.value, str)
                    and left.value.startswith(self.PREFIX)
                ):
                    yield self.finding(
                        module,
                        node,
                        "repro_query_* series name built by concatenation; "
                        "spell the full name as a literal so the catalogue "
                        "check can see it",
                    )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and name_shape.fullmatch(node.value)
            ):
                if catalogue is None:
                    continue
                if self._resolves(node.value, catalogue):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"series name {node.value!r} is not in DESIGN.md's "
                    "metric catalogue (nor an exposition suffix of a "
                    "catalogued family)",
                )

    def _resolves(self, name: str, catalogue: frozenset[str]) -> bool:
        return metric_name_resolves(
            name, catalogue, exposition_suffixes=self.EXPOSITION_SUFFIXES
        )


class RowAtATimeScanRule(Rule):
    """RS014 — query hot paths must not walk table rows one at a time."""

    id: ClassVar[str] = "RS014"
    title: ClassVar[str] = "no per-row row()/row_dict() loops in query hot paths"
    rationale: ClassVar[str] = (
        "The vectorized executor narrows candidates with compiled "
        "masks and materializes column-wise via Table.gather(); a "
        ".row()/.row_dict() call inside a loop rebuilds a dict per row "
        "and drags every column through Python, silently undoing the "
        "late-materialization win."
    )

    ROW_METHODS = frozenset({"row", "row_dict"})

    def applies_to(self, path: Path) -> bool:
        return "repro/query/" in path.as_posix()

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        parents = _parent_map(module.tree)
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self.ROW_METHODS
            ):
                continue
            if _inside_loop(node, parents):
                yield self.finding(
                    module,
                    node,
                    f"per-row .{node.func.attr}() inside a loop on a "
                    "query hot path; gather the needed columns in bulk "
                    "(Table.gather / column_array) instead",
                )


def default_rules() -> list[Rule]:
    """The full RS rule set, in catalogue order."""
    return [
        NoWallClockRule(),
        SeededRandomRule(),
        ChainedRaiseRule(),
        CataloguedMetricRule(),
        SanctionedFreshnessRule(),
        PublishedEventRule(),
        BatchMutatorRule(),
        BlockingAsyncRule(),
        SpanContextManagerRule(),
        QueryMetricReferenceRule(),
        RowAtATimeScanRule(),
    ]
