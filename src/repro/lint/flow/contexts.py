"""RS011 — interprocedural rot-race detector.

The server's concurrency contract has three execution contexts:

* **loop** — asyncio coroutines under ``repro/server`` (connection
  handlers, the ops plane) multiplexed on the event-loop thread,
* **worker** — the single ``fungus-engine`` executor thread that owns
  every engine/table mutation,
* **ticker** — the background Law-1 tick coroutine (loop thread, but a
  distinct logical context: it runs with no session and bypasses
  admission).

Contexts are seeded structurally — every ``async def`` in a server
module is loop (``_tick_loop`` is ticker), and any callable submitted
to the worker (an argument of ``run_in_executor`` / ``_run_strong`` /
``_admitted``, including lambdas and closure factories that *return*
a nested job) is worker — then pushed through the call graph by the
worklist pass.

A function whose context set contains anything besides ``worker`` must
not touch FungusDB/DecayingTable/Table state: those reads and writes
are only coherent on the engine thread. The sanctioned crossings are
barriers that absorb contexts:

* ``repro.server.snapshot`` — immutable tick snapshots published to
  the loop by atomic attribute assignment,
* ``repro.server.admission`` — loop-side queue accounting,
* ``repro.server.policy`` — the gatekeeper analyzes whichever engine
  handle its *caller* owns (live on the worker, the snapshot's frozen
  copies on the loop), so the ownership obligation sits at the call site,
* ``start``/``stop`` lifecycle methods (single-threaded by protocol:
  concurrency begins only once ``start`` returns),
* the client-process module (``client``) — it runs in the client, not
  in the server's loop.

The RaceProbe runtime sanitizer cross-checks this static model against
observed mutation threads.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.lint.engine import Finding
from repro.lint.flow.callgraph import (
    CallGraph,
    FunctionNode,
    _scope_nodes,
)
from repro.lint.flow.dataflow import Propagation, propagate

__all__ = ["RotRaceChecker"]

LOOP = "loop"
WORKER = "worker"
TICKER = "ticker"

#: modules that may legally be reached from more than one context
SANCTIONED_MODULES = frozenset(
    {
        "repro.server.snapshot",
        "repro.server.admission",
        "repro.server.policy",
    }
)

#: client-process code: runs outside the server's threads entirely
CLIENT_MODULES = frozenset({"repro.server.client"})

#: single-threaded lifecycle methods — concurrency starts after start()
LIFECYCLE_METHODS = frozenset({"start", "stop"})

#: calls whose callable arguments run on the engine worker thread
EXECUTOR_SUBMITTERS = frozenset({"run_in_executor", "_run_strong", "_admitted"})

#: nominal engine-state types (matched on the class's own name)
TRACKED_CLASSES = frozenset({"FungusDB", "DecayingTable", "Table"})

#: attributes of tracked types that form shared engine state
TRACKED_ATTRS = frozenset(
    {
        "tables",
        "policies",
        "storage",
        "catalog",
        "engine",
        "exhausted",
        "pinned",
        "store",
        "bus",
    }
)

#: stateful methods of tracked types (mutators and live-array reads)
TRACKED_METHODS = frozenset(
    {
        # FungusDB surface
        "insert",
        "insert_many",
        "tick",
        "query",
        "consume",
        "create_table",
        "drop_table",
        "checkpoint",
        "stats",
        "health",
        "extent",
        # DecayingTable surface
        "decay",
        "decay_many",
        "scale_many",
        "set_freshness",
        "set_freshness_many",
        "pin",
        "unpin",
        # storage Table surface
        "append",
        "append_many",
        "update",
        "delete",
        "delete_many",
        "delete_rows",
        "write_rows",
        "compact",
        "dense_copy",
        "scan",
        "row",
        "value",
        "live_list",
        "live_rowset",
        "column_values",
        "rowset",
    }
)


def is_server_module(module: str) -> bool:
    return module.startswith("repro.server.")


def is_barrier(node: FunctionNode) -> bool:
    """Whether contexts are absorbed at (never propagate into) ``node``."""
    if node.module in SANCTIONED_MODULES or node.module in CLIENT_MODULES:
        return True
    return (
        is_server_module(node.module)
        and node.class_name is not None
        and node.name in LIFECYCLE_METHODS
    )


class RotRaceChecker:
    """RS011: engine state reachable from two execution contexts."""

    id: ClassVar[str] = "RS011"
    title: ClassVar[str] = "no engine-state access outside the worker context"
    rationale: ClassVar[str] = (
        "Snapshot-at-tick isolation and op-log replay both assume the "
        "engine worker owns every FungusDB/Table mutation; an access "
        "reachable from the event loop or the ticker that skips the "
        "snapshot/admission boundary is a data race the moment decay "
        "and queries overlap."
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        contexts = propagate(
            graph, self._seeds(graph), direction="callees", stop=is_barrier
        )
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            ctxs = contexts.at(key)
            if not ctxs or ctxs == frozenset({WORKER}):
                continue
            yield from self._check_sites(graph, key, node, ctxs, contexts)

    # -- seeding -------------------------------------------------------

    def _seeds(self, graph: CallGraph) -> dict[str, frozenset[str]]:
        seeds: dict[str, frozenset[str]] = {}
        for key, node in graph.nodes.items():
            if not is_server_module(node.module) or is_barrier(node):
                continue
            if node.is_async:
                context = TICKER if node.name == "_tick_loop" else LOOP
                seeds[key] = seeds.get(key, frozenset()) | {context}
        for key, node in graph.nodes.items():
            if not is_server_module(node.module):
                continue
            if node.module in CLIENT_MODULES:
                continue
            for target in self._submitted_targets(graph, key):
                seeds[target] = seeds.get(target, frozenset()) | {WORKER}
        return seeds

    def _submitted_targets(self, graph: CallGraph, key: str) -> Iterator[str]:
        """Node keys of callables handed to the engine worker by ``key``."""
        fn = graph.body[key]
        for sub in _scope_nodes(fn):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name not in EXECUTOR_SUBMITTERS:
                continue
            for arg in sub.args:
                yield from self._callable_targets(graph, key, arg)

    def _callable_targets(
        self, graph: CallGraph, key: str, expr: ast.expr
    ) -> Iterator[str]:
        if isinstance(expr, ast.Name):
            target = graph.resolve_name(key, expr.id)
            if target is not None:
                yield target
        elif isinstance(expr, ast.Attribute):
            target = graph.resolve_attr(key, expr)
            if target is not None:
                yield target
        elif isinstance(expr, ast.Lambda):
            # the lambda body runs on the worker: seed what it calls
            for node in ast.walk(expr.body):
                if isinstance(node, ast.Call):
                    target = graph.resolve_call_expr(key, node)
                    if target is not None:
                        yield target
        elif isinstance(expr, ast.Call):
            # closure factory: seed the nested jobs the factory returns
            factory = graph.resolve_call_expr(key, expr)
            if factory is not None:
                yield from self._returned_nested(graph, factory)

    @staticmethod
    def _returned_nested(graph: CallGraph, factory: str) -> Iterator[str]:
        nested = graph.nested.get(factory, {})
        if not nested:
            return
        fn = graph.body[factory]
        for node in _scope_nodes(fn):
            if (
                isinstance(node, ast.Return)
                and isinstance(node.value, ast.Name)
                and node.value.id in nested
            ):
                yield nested[node.value.id]

    # -- site detection ------------------------------------------------

    def _check_sites(
        self,
        graph: CallGraph,
        key: str,
        node: FunctionNode,
        ctxs: frozenset[str],
        contexts: Propagation,
    ) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for sub in _scope_nodes(graph.body[key]):
            site: ast.Attribute | None = None
            kind = ""
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ):
                if sub.func.attr in TRACKED_METHODS:
                    site, kind = sub.func, "call"
            elif isinstance(sub, ast.Attribute):
                if sub.attr in TRACKED_ATTRS:
                    site, kind = sub, "attribute"
            if site is None:
                continue
            receiver = graph.receiver_type(key, site.value)
            if receiver is None:
                continue
            if receiver.split(".")[-1] not in TRACKED_CLASSES:
                continue
            mark = (site.lineno, site.col_offset)
            if mark in seen:
                continue
            seen.add(mark)
            yield self._finding(graph, key, node, ctxs, contexts, site, kind, receiver)

    def _finding(
        self,
        graph: CallGraph,
        key: str,
        node: FunctionNode,
        ctxs: frozenset[str],
        contexts: Propagation,
        site: ast.Attribute,
        kind: str,
        receiver: str,
    ) -> Finding:
        non_worker = sorted(ctxs - {WORKER})
        chain = contexts.witness(key, non_worker[0], graph)
        access = (
            f".{site.attr}()" if kind == "call" else f".{site.attr}"
        )
        return Finding(
            rule=self.id,
            path=node.path,
            line=site.lineno,
            col=site.col_offset,
            message=(
                f"{receiver.split('.')[-1]}{access} touched from "
                f"context(s) {{{', '.join(sorted(ctxs))}}} "
                f"({non_worker[0]} path: {' -> '.join(chain)}); engine "
                "state belongs to the worker — cross via the "
                "snapshot/admission boundary instead"
            ),
        )
