"""Tier-C flow analysis: the call graph, the RS011–RS013 rules, and
the shipped tree's cleanliness.

The golden-package test pins the builder's exact output — every edge
kind the interprocedural rules depend on (method resolution through
``self``, async defs, decorated defs, nested defs, inheritance,
classmethod factories, cross-module imports) asserted pair by pair, so
a resolution regression fails loudly instead of silently shrinking the
rules' reach.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from repro.lint.engine import Finding
from repro.lint.flow import (
    FlowEngine,
    build_callgraph,
    module_name_for,
)
from repro.lint.flow.callgraph import expand_paths

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _rules(findings: list[Finding]) -> list[str]:
    return [f.rule for f in findings]


class TestCallGraphGolden:
    """The flowpkg fixture's graph, asserted edge by edge."""

    EXPECTED_EDGES = {
        ("flowpkg.alpha.NamedWidget.describe", "flowpkg.alpha.Widget.area"),
        ("flowpkg.alpha.Widget.doubled", "flowpkg.alpha.Widget.area"),
        ("flowpkg.alpha.Widget.unit", "flowpkg.alpha.Widget.__init__"),
        ("flowpkg.alpha.decorated", "flowpkg.alpha.helper"),
        ("flowpkg.alpha.fetch", "flowpkg.alpha.helper"),
        ("flowpkg.alpha.outer", "flowpkg.alpha.outer.<locals>.inner"),
        ("flowpkg.alpha.outer.<locals>.inner", "flowpkg.alpha.helper"),
        ("flowpkg.beta.build", "flowpkg.alpha.Widget.__init__"),
        ("flowpkg.beta.build", "flowpkg.alpha.Widget.doubled"),
        ("flowpkg.beta.drive", "flowpkg.alpha.fetch"),
        ("flowpkg.beta.run", "flowpkg.alpha.decorated"),
        ("flowpkg.beta.run", "flowpkg.alpha.helper"),
        ("flowpkg.beta.run", "flowpkg.beta.build"),
    }

    def test_exact_edges(self):
        graph = build_callgraph([FIXTURES / "flowpkg"])
        assert set(graph.edge_pairs()) == self.EXPECTED_EDGES

    def test_every_def_is_a_node(self):
        graph = build_callgraph([FIXTURES / "flowpkg"])
        dotted = {node.dotted for node in graph.nodes.values()}
        assert "flowpkg.alpha.Widget.unit" in dotted  # classmethod
        assert "flowpkg.alpha.fetch" in dotted  # async def
        assert "flowpkg.alpha.decorated" in dotted  # decorated def
        assert "flowpkg.alpha.outer.<locals>.inner" in dotted  # nested
        fetch = next(n for n in graph.nodes.values() if n.name == "fetch")
        assert fetch.is_async
        decorated = next(
            n for n in graph.nodes.values() if n.name == "decorated"
        )
        assert "logged" in decorated.decorators

    def test_stdlib_calls_stay_unresolved_not_invented(self):
        graph = build_callgraph([FIXTURES / "flowpkg"])
        unresolved = {
            name
            for calls in graph.unresolved.values()
            for name, _line in calls
        }
        assert "asyncio.sleep" in unresolved


class TestModuleNaming:
    def test_fixture_server_paths_analyze_like_shipped_code(self):
        path = FIXTURES / "repro" / "server" / "rs011_rot_race.py"
        assert module_name_for(path) == "repro.server.rs011_rot_race"

    def test_package_walkup_without_repro_component(self):
        assert module_name_for(FIXTURES / "flowpkg" / "alpha.py") == (
            "flowpkg.alpha"
        )


class TestRS011RotRace:
    def test_known_bad_fixture_fires(self):
        report = FlowEngine().analyze_paths(
            [FIXTURES / "repro" / "server" / "rs011_rot_race.py"]
        )
        assert _rules(report.findings) == ["RS011", "RS011", "RS011"]
        lines = sorted(f.line for f in report.findings)
        # insert's body, handle's direct call, _hot_read's attr touch
        assert lines == [18, 26, 30]
        assert all("loop" in f.message for f in report.findings)

    def test_worker_only_mutation_is_clean(self):
        report = FlowEngine().analyze_paths(
            [FIXTURES / "repro" / "server" / "rs011_rot_race.py"]
        )
        # the executor-submitted job (line 34) must never be flagged
        assert all(f.line != 34 for f in report.findings)

    def test_loop_side_evict_fires(self):
        report = FlowEngine().analyze_paths(
            [FIXTURES / "repro" / "server" / "rs011_loop_evict.py"]
        )
        assert _rules(report.findings) == ["RS011"]
        (finding,) = report.findings
        assert finding.line == 19 and ".evict()" in finding.message


class TestRS012DeterminismTaint:
    PATHS = [
        FIXTURES / "repro" / "core" / "rs012_taint.py",
        FIXTURES / "repro" / "entropy.py",
    ]

    def test_known_bad_fixture_fires(self):
        report = FlowEngine().analyze_paths(self.PATHS)
        assert _rules(report.findings) == ["RS012", "RS012"]
        edge, set_iter = report.findings
        assert "time.time()" in edge.message
        assert "repro.entropy.backoff_seconds" in edge.message
        assert "sorted(" in set_iter.message

    def test_source_module_itself_is_not_flagged(self):
        report = FlowEngine().analyze_paths(self.PATHS)
        assert all("entropy.py" not in f.path for f in report.findings)


class TestRS013LockDiscipline:
    def test_known_bad_fixture_fires(self):
        report = FlowEngine().analyze_paths(
            [FIXTURES / "rs013_lock_discipline.py"]
        )
        assert _rules(report.findings) == ["RS013", "RS013", "RS013"]
        lines = sorted(f.line for f in report.findings)
        # size_unsafe's read, _bump's two touches; _evict (lock held on
        # entry via put) and __init__ stay clean
        assert lines == [29, 35, 35]
        assert any("racy_bump" in f.message for f in report.findings)

    def test_lock_held_on_entry_keeps_evict_clean(self):
        report = FlowEngine().analyze_paths(
            [FIXTURES / "rs013_lock_discipline.py"]
        )
        assert all(f.line not in (25, 26) for f in report.findings)


class TestGraphCoversWholeTree:
    def test_every_src_def_appears_exactly_once(self):
        """Property: one node per function/async def, lambdas excluded."""
        targets = expand_paths([REPO / "src"])
        graph = build_callgraph(targets)
        keys = {(node.path, node.lineno) for node in graph.nodes.values()}
        assert len(keys) == len(graph.nodes)
        per_path = Counter(node.path for node in graph.nodes.values())
        for path in targets:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            defs = sum(
                isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                for n in ast.walk(tree)
            )
            assert per_path.get(str(path), 0) == defs, path


class TestShippedTreeIsFlowClean:
    def test_src_flows_clean_with_zero_suppressions(self):
        report = FlowEngine().analyze_paths([REPO / "src"])
        assert report.findings == [], report.human()
        assert report.suppressed == 0
        assert report.files > 100
        assert report.functions > 1000
        assert report.edges > 1000


class TestFlowCli:
    def test_flow_subcommand_json_and_graph(self, capsys):
        import json

        from repro.lint.__main__ import main

        code = main(
            ["flow", str(FIXTURES / "flowpkg"), "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["findings"] == []
        assert payload["functions"] == 14

    def test_flow_subcommand_exits_one_on_findings(self, capsys):
        from repro.lint.__main__ import main

        code = main(
            ["flow", str(FIXTURES / "rs013_lock_discipline.py"), "--stats"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "RS013" in out
