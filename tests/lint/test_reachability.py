"""Every ``src/`` function is reached from a product root, by name.

Roots: everything outside ``src/`` (bench_e2e, examples, benchmarks), the
``__main__``s, ``cli.py``/``serve.py``, dunders, the Fungus and
TableObserver protocols, and module-level code (decorators such as the
experiment registry, defaults, ``repro.__all__``; sub-package ``__all__``
lists do not count). A reached function reaches every function whose name
it references or calls, whether or not the graph resolved the edge, and
``getattr(x, f"_op_{...}")`` reaches every ``_op_*`` — conservative, so the
unreached set is a list of dead code, not of guesses.
"""

import ast
from collections import defaultdict
from pathlib import Path

from bench_e2e.trace import TARGETS
from repro.lint.flow.callgraph import _scope_nodes, build_callgraph

REPO = Path(__file__).resolve().parents[2]
ROOTS = ("/__main__.py", "/cli.py", "/serve.py")
PROTOCOLS = ("repro.core.fungus.Fungus", "repro.storage.table.TableObserver")
ALLOWED = {
    # the stated error bounds the sketch tests check against
    "repro.sketch.bloom.BloomFilter.false_positive_rate",
    "repro.sketch.bloom.BloomFilter.from_capacity",
    "repro.sketch.countmin.CountMinSketch.from_error",
    "repro.sketch.hyperloglog.HyperLogLog.relative_error",
    # observation hooks: rot spans for the equivalence suites, the
    # compaction generation and per-rule alert state for their unit tests
    "repro.storage.table.Table.rot_spans",
    "repro.storage.table.Table.generation",
    "repro.obs.forensics.alerts.AlertEngine.states",
    # one-call drivers of an experiment and of a simulation run
    "repro.bench.runner.run_experiment",
    "repro.sim.driver.run_sim",
}

GRAPH = build_callgraph([REPO / d for d in ("src", "bench_e2e", "examples", "benchmarks")])
BY_NAME = defaultdict(set)
for _key, _node in GRAPH.nodes.items():
    BY_NAME[_node.name].add(_key)


def _referenced(nodes) -> set:
    """Every function a body may reach: names, attributes, strings, getattr."""
    out = set()
    for sub in nodes:
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value.rsplit(".", 1)[-1]  # bench_e2e TARGETS, getattr
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", "") == "getattr":
            if isinstance(sub.args[1], ast.JoinedStr):
                prefix = sub.args[1].values[0].value
                out.update(k for n, keys in BY_NAME.items() if n.startswith(prefix) for k in keys)
        out.update(BY_NAME.get(name, ()))
    return out


def _module_level(module):
    """Module and class bodies, decorators and defaults; not function bodies."""
    stack = list(module.tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.args.defaults)
            continue
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
            if module.name != "repro":
                continue  # only the top-level package's exports are roots
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_every_src_function_is_reached_or_allowed():
    src = REPO / "src"
    todo = [
        key for key, node in GRAPH.nodes.items()
        if not Path(node.path).is_relative_to(src) or node.path.endswith(ROOTS)
        or node.name.startswith("__")
    ]
    # a protocol method is called on whatever implements it
    todo.extend(
        key for node in GRAPH.nodes.values() if node.class_name in PROTOCOLS
        for key in BY_NAME[node.name]
    )
    for module in GRAPH.modules.values():
        todo.extend(_referenced(_module_level(module)))
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(_referenced(_scope_nodes(GRAPH.body[key])))
    unreached = {
        GRAPH.nodes[key].dotted for key in GRAPH.nodes.keys() - reached
        if Path(GRAPH.nodes[key].path).is_relative_to(src)
    }
    assert unreached == ALLOWED


def test_every_trace_target_resolves():
    for module, path, _span in TARGETS:
        dotted = GRAPH.modules[module].imports.get(path, f"{module}.{path}")
        assert dotted in GRAPH.functions_by_dotted, (module, path)
