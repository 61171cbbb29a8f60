"""Every ``src/`` function is reached from a product root, by name.

Roots: everything outside ``src/`` (bench_e2e, examples, benchmarks), the
``__main__``s, ``cli.py``/``serve.py``, dunders, the Fungus and
TableObserver protocols, and module-level code (decorators such as the
experiment registry, defaults, ``repro.__all__``; sub-package ``__all__``
lists do not count). A reached function reaches every function and class
whose name it references or calls, whether or not the graph resolved the
edge, and ``getattr(x, f"_op_{...}")`` reaches every ``_op_*``. A ``src/``
method counts only once its class is live — named from a reached scope or
module-level code, or a base of a live class — so a class nobody builds
cannot live on through common method names. Conservative: the unreached
set is a list of dead code, not of guesses.
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
    # observation hooks: the compaction generation and per-rule alert
    # state for their unit tests
    "repro.storage.table.Table.generation",
    # the one-rid and one-range forms of neighbours and the tombstone
    # index, held to a list walk by the navigation equivalence suite
    "repro.storage.table.Table.prev_live",
    "repro.storage.table.Table.next_live",
    "repro.storage.table.Table.live_runs",
    "repro.obs.forensics.alerts.AlertEngine.states",
    # one-call drivers of an experiment and of a simulation run
    "repro.experiments.common.run_experiment",
    "repro.sim.driver.run_sim",
}

GRAPH = build_callgraph([REPO / d for d in ("src", "bench_e2e", "examples", "benchmarks")])
BY_NAME = defaultdict(set)
for _key, _node in GRAPH.nodes.items():
    BY_NAME[_node.name].add(_key)
CLASSES = defaultdict(set)  # bare class name -> dotted class names
for _dotted in GRAPH.classes:
    CLASSES[_dotted.rsplit(".", 1)[-1]].add(_dotted)


def _names(nodes):
    """Every name a body may reach code by: names, attributes, strings, getattr."""
    for sub in nodes:
        name = getattr(sub, "id", None) or getattr(sub, "attr", None)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value.rsplit(".", 1)[-1]  # bench_e2e TARGETS, getattr
        if isinstance(sub, ast.Call) and getattr(sub.func, "id", "") == "getattr":
            if isinstance(sub.args[1], ast.JoinedStr):
                prefix = sub.args[1].values[0].value
                yield from (n for n in BY_NAME if n.startswith(prefix))
        if isinstance(name, str):
            yield name


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
    reached, live, parked = set(), set(), defaultdict(set)

    def revive(classes):
        for cls in set(classes) - live:
            live.add(cls)
            todo.extend(parked.pop(cls, ()))
            revive(GRAPH.classes[cls].resolved_bases if cls in GRAPH.classes else ())

    def visit(names):
        for name in names:
            todo.extend(BY_NAME.get(name, ()))
            revive(CLASSES.get(name, ()))

    for module in GRAPH.modules.values():
        visit(_names(_module_level(module)))
    while todo:
        key = todo.pop()
        node = GRAPH.nodes[key]
        if key in reached:
            continue
        cls = node.class_name
        if cls is not None and cls not in live and Path(node.path).is_relative_to(src):
            parked[cls].add(key)  # until something names its class
            continue
        reached.add(key)
        visit(_names(_scope_nodes(GRAPH.body[key])))
    unreached = {
        GRAPH.nodes[key].dotted for key in GRAPH.nodes.keys() - reached
        if Path(GRAPH.nodes[key].path).is_relative_to(src)
    }
    assert unreached == ALLOWED


def test_every_trace_target_resolves():
    for module, path, _span in TARGETS:
        dotted = GRAPH.modules[module].imports.get(path, f"{module}.{path}")
        assert dotted in GRAPH.functions_by_dotted, (module, path)
