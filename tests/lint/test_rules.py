"""Tier-A rule engine: mutation-style self-tests.

Each RS rule must fire on its known-bad fixture (a linter that stays
silent on planted violations is worthless), per-line ``noqa``
suppressions must work, and the shipped source tree must lint clean
with **zero** suppressions — that last test is the baseline the rules
enforce going forward.
"""

from pathlib import Path

import pytest

from repro.lint.engine import LintEngine, ModuleSource, SYNTAX_RULE_ID
from repro.lint.rules import (
    BatchMutatorRule,
    BlockingAsyncRule,
    CataloguedMetricRule,
    ChainedRaiseRule,
    NoWallClockRule,
    PublishedEventRule,
    QueryMetricReferenceRule,
    RowAtATimeScanRule,
    SanctionedFreshnessRule,
    SeededRandomRule,
    SpanContextManagerRule,
    default_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]

FIXTURE_BY_RULE = {
    "RS001": FIXTURES / "repro" / "core" / "rs001_wall_clock.py",
    "RS002": FIXTURES / "rs002_module_random.py",
    "RS003": FIXTURES / "rs003_unchained_raise.py",
    "RS004": FIXTURES / "rs004_metric_names.py",
    "RS005": FIXTURES / "rs005_freshness_write.py",
    "RS006": FIXTURES / "rs006_dropped_event.py",
    "RS007": FIXTURES / "repro" / "fungi" / "rs007_per_row_decay.py",
    "RS008": FIXTURES / "repro" / "server" / "rs008_blocking_async.py",
    "RS009": FIXTURES / "repro" / "server" / "rs009_manual_span.py",
    "RS010": FIXTURES / "rs010_query_metric_refs.py",
    "RS014": FIXTURES / "repro" / "query" / "rs014_per_row_scan.py",
}

EXPECTED_COUNTS = {
    "RS001": 4,  # two calls, sleep, and the banned import
    "RS002": 3,  # two module-level calls and the import
    "RS003": 1,  # only the unchained raise; chained/re-raise pass
    "RS004": 3,  # dynamic, wrong namespace, undocumented
    "RS005": 7,  # update/write_rows of "f" or freshness_column, 3 array stores
    "RS006": 2,  # dropped expression and never-published assignment
    "RS007": 2,  # for-loop set_freshness and comprehension decay
    "RS008": 4,  # sleep, sync socket, open(), pathlib read; helpers pass
    "RS009": 4,  # detached/span, parented or not, sans with; with + record_span pass
    "RS010": 3,  # undocumented name, concatenation, f-string; suffix passes
    "RS014": 2,  # for-loop row_dict and comprehension row; gather passes
}


class TestRulesFireOnFixtures:
    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_BY_RULE))
    def test_rule_fires_on_its_fixture(self, rule_id):
        report = LintEngine().lint_paths([FIXTURE_BY_RULE[rule_id]])
        fired = [f for f in report.findings if f.rule == rule_id]
        assert len(fired) == EXPECTED_COUNTS[rule_id], report.human()

    @pytest.mark.parametrize("rule_id", sorted(FIXTURE_BY_RULE))
    def test_fixture_is_otherwise_clean(self, rule_id):
        """A fixture must demonstrate exactly one rule."""
        report = LintEngine().lint_paths([FIXTURE_BY_RULE[rule_id]])
        assert {f.rule for f in report.findings} == {rule_id}, report.human()

    def test_rs007_distill_scope_fixture_pair(self):
        """Cooking dicts per row is flagged in distill.py/db.py; columns pass."""
        core = FIXTURES / "repro" / "core"
        bad = LintEngine().lint_paths([core / "distill.py"])
        assert [f.rule for f in bad.findings] == ["RS007", "RS007"], bad.human()
        assert {f.message.split("(")[0] for f in bad.findings} == {
            "per-row add_row",
            "per-row row_dict",
        }
        assert all("add_columns" in f.message for f in bad.findings)
        good = LintEngine().lint_paths([core / "db.py"])
        assert good.findings == [], good.human()

    def test_rs007_consume_publish_fixture_pair(self):
        """An event per consumed row is flagged in db.py; one batch passes."""
        bad = LintEngine().lint_paths(
            [FIXTURES / "per_row" / "repro" / "core" / "db.py"]
        )
        assert [f.rule for f in bad.findings] == ["RS007"], bad.human()
        assert bad.findings[0].message.startswith("per-row publish")
        assert "TupleConsumedBatch" in bad.findings[0].message
        good = LintEngine().lint_paths([FIXTURES / "repro" / "core" / "db.py"])
        assert good.findings == [], good.human()

    def test_rs007_observer_scope_fixture_pair(self):
        """Walking a batch per row is flagged in the observers; arrays pass."""
        bad = LintEngine().lint_paths([FIXTURES / "repro" / "obs" / "collector.py"])
        assert [f.rule for f in bad.findings] == ["RS007"] * 4, bad.human()
        assert {f.message.split("(")[0] for f in bad.findings} == {
            "per-row freshness_values",
            "per-row band_of",
            "per-row column_values",
        }
        assert all("band_counts" in f.message for f in bad.findings)
        good = LintEngine().lint_paths([FIXTURES / "repro" / "core" / "health.py"])
        assert good.findings == [], good.human()

    def test_rs007_scopes(self):
        rule = BatchMutatorRule()
        assert rule.applies_to(Path("src/repro/obs/collector.py"))
        assert rule.applies_to(Path("src/repro/core/health.py"))
        assert rule.applies_to(Path("src/repro/storage/stats.py"))
        # per-row by contract: one biography per tuple
        assert not rule.applies_to(Path("src/repro/obs/forensics/collector.py"))
        assert rule.applies_to(Path("src/repro/core/distill.py"))
        assert rule.applies_to(Path("src/repro/core/db.py"))
        assert rule.applies_to(Path("src/repro/core/policy.py"))
        assert rule.applies_to(Path("src/repro/fungi/egi.py"))
        assert not rule.applies_to(Path("src/repro/sketch/summary.py"))

    def test_findings_carry_location_and_message(self):
        report = LintEngine().lint_paths([FIXTURE_BY_RULE["RS003"]])
        (finding,) = report.findings
        assert finding.path.endswith("rs003_unchained_raise.py")
        assert finding.line > 1
        assert "from" in finding.message
        assert str(finding.line) in finding.format()


class TestSuppressions:
    def test_noqa_suppresses_on_the_flagged_line(self):
        source = FIXTURE_BY_RULE["RS005"].read_text()
        patched = source.replace(
            'table.storage.update(rid, "f", -3.0)',
            'table.storage.update(rid, "f", -3.0)  # repro: noqa[RS005]',
        )
        findings, suppressed = LintEngine().lint_source(
            Path("rs005_patched.py"), patched
        )
        assert suppressed == 1
        assert len([f for f in findings if f.rule == "RS005"]) == 6

    def test_noqa_is_rule_specific(self):
        source = 'import random\nx = random.random()  # repro: noqa[RS001]\n'
        findings, suppressed = LintEngine().lint_source(Path("x.py"), source)
        assert suppressed == 0  # wrong rule id: nothing suppressed
        assert [f.rule for f in findings] == ["RS002"]

    def test_noqa_accepts_a_rule_list(self):
        source = 'import random\nx = random.random()  # repro: noqa[RS001, RS002]\n'
        findings, suppressed = LintEngine().lint_source(Path("x.py"), source)
        assert suppressed == 1
        assert findings == []


class TestEngine:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        findings, _ = LintEngine().lint_source(Path("broken.py"), "def f(:\n")
        assert [f.rule for f in findings] == [SYNTAX_RULE_ID]

    def test_scoped_rules_skip_unrestricted_paths(self):
        """RS001 only bites inside the decay-critical packages."""
        rule = NoWallClockRule()
        assert rule.applies_to(Path("src/repro/core/db.py"))
        assert rule.applies_to(Path("src/repro/fungi/egi.py"))
        assert not rule.applies_to(Path("src/repro/obs/profile.py"))
        assert not rule.applies_to(Path("src/repro/bench/run.py"))

    def test_report_json_round_trips(self):
        import json

        report = LintEngine().lint_paths([FIXTURE_BY_RULE["RS002"]])
        payload = json.loads(report.to_json())
        assert payload["files"] == 1
        assert len(payload["findings"]) == EXPECTED_COUNTS["RS002"]
        assert {"rule", "path", "line", "col", "message"} <= set(
            payload["findings"][0]
        )

    def test_default_rules_cover_the_catalogue(self):
        ids = [rule.id for rule in default_rules()]
        assert ids == [
            "RS001",
            "RS002",
            "RS003",
            "RS004",
            "RS005",
            "RS006",
            "RS007",
            "RS008",
            "RS009",
            "RS010",
            "RS014",
        ]
        for rule in default_rules():
            assert rule.title and rule.rationale

    def test_rule_metadata_types(self):
        for rule_cls in (
            NoWallClockRule,
            SeededRandomRule,
            ChainedRaiseRule,
            CataloguedMetricRule,
            SanctionedFreshnessRule,
            PublishedEventRule,
            BatchMutatorRule,
            BlockingAsyncRule,
            SpanContextManagerRule,
            QueryMetricReferenceRule,
            RowAtATimeScanRule,
        ):
            assert rule_cls.id.startswith("RS")


class TestShippedTreeIsClean:
    def test_src_lints_clean_with_zero_suppressions(self):
        """The baseline: no findings AND no suppression escape hatches."""
        report = LintEngine().lint_paths([REPO / "src"])
        assert report.findings == [], report.human()
        assert report.suppressed == 0
        assert report.files > 100  # the whole tree was actually walked


class TestRS008Scope:
    def test_only_bites_under_the_server_package(self):
        rule = BlockingAsyncRule()
        assert rule.applies_to(Path("src/repro/server/server.py"))
        assert not rule.applies_to(Path("src/repro/core/db.py"))
        assert not rule.applies_to(Path("src/repro/obs/export.py"))

    def test_sync_defs_and_asyncio_sleep_pass(self):
        source = (
            "import asyncio, time\n"
            "async def ok():\n"
            "    await asyncio.sleep(0.1)\n"
            "def setup():\n"
            "    time.sleep(0.1)\n"
        )
        findings, _ = LintEngine(rules=[BlockingAsyncRule()]).lint_source(
            Path("repro/server/x.py"), source
        )
        assert findings == []

    def test_time_sleep_in_async_def_fails(self):
        source = "import time\nasync def bad():\n    time.sleep(1)\n"
        findings, _ = LintEngine(rules=[BlockingAsyncRule()]).lint_source(
            Path("repro/server/x.py"), source
        )
        assert [f.rule for f in findings] == ["RS008"]
        assert "asyncio.sleep" in findings[0].message


class TestRS009Scope:
    def test_bites_everywhere_under_repro(self):
        rule = SpanContextManagerRule()
        assert rule.applies_to(Path("src/repro/server/server.py"))
        assert rule.applies_to(Path("src/repro/obs/tracing.py"))
        assert rule.applies_to(Path("src/repro/core/db.py"))
        assert rule.applies_to(Path("src/repro/sim/driver.py"))
        assert not rule.applies_to(Path("bench_e2e/trace.py"))

    def test_with_wrapped_and_record_span_pass(self):
        source = (
            "def f(tracer, parent):\n"
            "    with tracer.detached_span('server.request') as root:\n"
            "        with tracer.detached_span('reply', root):\n"
            "            pass\n"
            "    tracer.record_span('admission.wait', parent, 0.0, 0.1)\n"
        )
        findings, _ = LintEngine(rules=[SpanContextManagerRule()]).lint_source(
            Path("repro/server/x.py"), source
        )
        assert findings == []

    def test_bare_opener_fails(self):
        source = "def f(tracer):\n    s = tracer.span('query')\n    return s\n"
        findings, _ = LintEngine(rules=[SpanContextManagerRule()]).lint_source(
            Path("repro/obs/x.py"), source
        )
        assert [f.rule for f in findings] == ["RS009"]
        assert "with" in findings[0].message


class TestRS014Scope:
    def test_only_bites_under_the_query_package(self):
        rule = RowAtATimeScanRule()
        assert rule.applies_to(Path("src/repro/query/operators.py"))
        assert not rule.applies_to(Path("src/repro/storage/table.py"))
        assert not rule.applies_to(Path("src/repro/core/db.py"))

    def test_bulk_gather_and_one_off_reads_pass(self):
        source = (
            "def f(table, rids):\n"
            "    values = table.gather('v', rids)\n"
            "    first = table.row_dict(rids[0])\n"
            "    return values, first\n"
        )
        findings, _ = LintEngine(rules=[RowAtATimeScanRule()]).lint_source(
            Path("repro/query/x.py"), source
        )
        assert findings == []

    def test_per_row_loop_fails(self):
        source = (
            "def f(table, rids):\n"
            "    return [table.row(rid) for rid in rids]\n"
        )
        findings, _ = LintEngine(rules=[RowAtATimeScanRule()]).lint_source(
            Path("repro/query/x.py"), source
        )
        assert [f.rule for f in findings] == ["RS014"]
        assert "gather" in findings[0].message


class TestRS006Patterns:
    def test_publish_arg_and_assignment_paths_pass(self):
        source = (
            "from repro.core.events import TupleInsertedBatch\n"
            "def f(bus):\n"
            "    bus.publish(TupleInsertedBatch('r', 1.0, 1, 2))\n"
            "    e = TupleInsertedBatch('r', 2.0, 2, 3)\n"
            "    bus.publish(e)\n"
        )
        findings, _ = LintEngine(
            rules=[PublishedEventRule()]
        ).lint_source(Path("ok.py"), source)
        assert findings == []

    def test_returned_event_passes(self):
        source = (
            "from repro.core.events import TupleInsertedBatch\n"
            "def f():\n"
            "    return TupleInsertedBatch('r', 1.0, 1, 2)\n"
        )
        findings, _ = LintEngine(
            rules=[PublishedEventRule()]
        ).lint_source(Path("ok.py"), source)
        assert findings == []

    def test_dropped_event_fails(self):
        source = (
            "from repro.core.events import TupleInsertedBatch\n"
            "def f():\n"
            "    TupleInsertedBatch('r', 1.0, 1, 2)\n"
        )
        findings, _ = LintEngine(
            rules=[PublishedEventRule()]
        ).lint_source(Path("bad.py"), source)
        assert [f.rule for f in findings] == ["RS006"]
