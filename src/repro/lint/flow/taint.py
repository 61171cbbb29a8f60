"""RS012 — interprocedural determinism taint.

RS001/RS002 flag a wall-clock or module-level-random call *in* a
determinism-critical package; this rule generalizes them across calls.
Every function containing a nondeterminism source is seeded, taint is
pulled backwards through the call graph (a caller of a tainted
function is tainted), and a finding fires on every call edge where
determinism-critical code (``core/``, ``fungi/``, ``sim/``,
``storage/``, ``query/``) invokes a tainted helper *outside* the
critical zone — the boundary through which nondeterminism leaks in.
Sources inside the critical zone itself are already Tier-A findings
(RS001/RS002), so RS012 reports each leak exactly once, at the edge
where it crosses the boundary.

Source families:

* wall-clock reads (the RS001 call list: ``time.time`` etc.),
* the shared module-level ``random.*`` generator (``random.Random``
  construction stays legal, matching RS002),
* entropy taps: ``os.urandom``, ``uuid.uuid1``/``uuid4``,
  ``secrets.*``,
* builtin ``hash()`` — PYTHONHASHSEED-dependent for strings — except
  inside a ``__hash__`` method, where delegating to ``hash()`` on
  already-hashable state is the idiom,
* iteration directly over a set expression (set literal, ``set()``/
  ``frozenset()`` call, set comprehension) in critical code — an
  intraprocedural sub-check, since the iteration order is the hazard
  at the site itself. ``dict`` iteration is insertion-ordered and
  therefore deterministic; it is deliberately not a source.

``repro.obs`` is exempt end to end: observation code reads real time
by design (span timestamps and durations) and never feeds values
back into engine state — taint neither seeds there nor crosses it.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.lint.engine import Finding
from repro.lint.flow.callgraph import CallGraph, FunctionNode, _scope_nodes
from repro.lint.flow.dataflow import propagate
from repro.lint.rules import NoWallClockRule

__all__ = ["DeterminismTaintChecker"]

#: dotted prefixes of the determinism-critical zone
CRITICAL_PACKAGES = ("core", "fungi", "sim", "storage", "query")

#: single-call entropy taps beyond the RS001 wall-clock list
ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})


def in_critical_zone(module: str) -> bool:
    return any(
        module == f"repro.{pkg}" or module.startswith(f"repro.{pkg}.")
        for pkg in CRITICAL_PACKAGES
    )


def is_observation_module(module: str) -> bool:
    return module == "repro.obs" or module.startswith("repro.obs.")


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


def _dotted(node: ast.AST) -> str | None:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class DeterminismTaintChecker:
    """RS012: critical code must not reach nondeterminism sources."""

    id: ClassVar[str] = "RS012"
    title: ClassVar[str] = "no nondeterminism reachable from critical code"
    rationale: ClassVar[str] = (
        "Replay, the sim oracle and the PR-6 op-log comparison demand "
        "bit-identical re-execution; a wall-clock read, shared RNG or "
        "hash-order dependency two calls deep breaks them exactly like "
        "a local one, so taint must be tracked through the graph."
    )

    def check(self, graph: CallGraph) -> Iterator[Finding]:
        seeds: dict[str, frozenset[str]] = {}
        for key, node in graph.nodes.items():
            if is_observation_module(node.module):
                continue
            local = self._local_sources(graph, key, node)
            if local:
                seeds[key] = frozenset(local)
        taint = propagate(
            graph,
            seeds,
            direction="callers",
            stop=lambda n: is_observation_module(n.module),
        )
        reported: set[tuple[str, str]] = set()
        for edge in graph.edges:
            caller = graph.nodes[edge.caller]
            callee = graph.nodes[edge.callee]
            if not in_critical_zone(caller.module):
                continue
            if in_critical_zone(callee.module):
                continue
            facts = taint.at(edge.callee)
            if not facts:
                continue
            mark = (edge.caller, edge.callee)
            if mark in reported:
                continue
            reported.add(mark)
            source = sorted(facts)[0]
            chain = taint.witness(edge.caller, source, graph)
            yield Finding(
                rule=self.id,
                path=caller.path,
                line=edge.line,
                col=edge.col,
                message=(
                    f"call into {callee.dotted}() reaches nondeterminism "
                    f"source {source} (path: {' -> '.join(reversed(chain))}); "
                    "critical code must take the injected clock/rng instead"
                ),
            )
        yield from self._set_iteration_sites(graph)

    # -- sources -------------------------------------------------------

    def _local_sources(
        self, graph: CallGraph, key: str, node: FunctionNode
    ) -> list[str]:
        sources: list[str] = []
        banned = NoWallClockRule.BANNED_CALLS
        for sub in _scope_nodes(graph.body[key]):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            dotted = _dotted(func)
            desc: str | None = None
            if dotted is not None and (
                dotted in banned
                or ".".join(dotted.split(".")[-2:]) in banned
            ):
                desc = f"{dotted}()"
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr != "Random"
            ):
                desc = f"random.{func.attr}()"
            elif dotted is not None and (
                dotted in ENTROPY_CALLS or dotted.startswith("secrets.")
            ):
                desc = f"{dotted}()"
            elif (
                isinstance(func, ast.Name)
                and func.id == "hash"
                and node.name != "__hash__"
            ):
                desc = "hash()"
            if desc is not None:
                sources.append(f"{desc} at {node.module}:{sub.lineno}")
        return sources

    # -- intraprocedural set-iteration sub-check -----------------------

    def _set_iteration_sites(self, graph: CallGraph) -> Iterator[Finding]:
        for key in sorted(graph.nodes):
            node = graph.nodes[key]
            if not in_critical_zone(node.module):
                continue
            for sub in _scope_nodes(graph.body[key]):
                iters: list[ast.expr] = []
                if isinstance(sub, (ast.For, ast.AsyncFor)):
                    iters.append(sub.iter)
                elif isinstance(
                    sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    iters.extend(gen.iter for gen in sub.generators)
                for it in iters:
                    if _is_set_expr(it):
                        yield Finding(
                            rule=self.id,
                            path=node.path,
                            line=it.lineno,
                            col=it.col_offset,
                            message=(
                                "iteration over an unordered set expression "
                                "in determinism-critical code; wrap it in "
                                "sorted(...) to fix the order"
                            ),
                        )
