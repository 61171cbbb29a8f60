"""The stale-suppression audit (RS900) and per-rule hit counting."""

from __future__ import annotations

from pathlib import Path

from repro.lint.engine import STALE_NOQA_RULE_ID, LintEngine

BAD_CLOCK = "import time\n\ndef f():\n    return time.time()\n"
PATH = Path("repro/core/x.py")


class TestStaleNoqaAudit:
    def test_live_suppression_is_not_stale(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro: noqa[RS001]\n"
        )
        findings, suppressed = LintEngine(audit_noqa=True).lint_source(
            PATH, source
        )
        assert findings == []
        assert suppressed == 1

    def test_stale_suppression_is_a_finding(self):
        source = "import time\n\ndef f():\n    return 1  # repro: noqa[RS001]\n"
        findings, _ = LintEngine(audit_noqa=True).lint_source(PATH, source)
        assert [f.rule for f in findings] == [STALE_NOQA_RULE_ID]
        assert "RS001" in findings[0].message
        assert findings[0].line == 4

    def test_partially_stale_list_flags_only_the_dead_id(self):
        source = (
            "import time\n\ndef f():\n"
            "    return time.time()  # repro: noqa[RS001, RS004]\n"
        )
        findings, suppressed = LintEngine(audit_noqa=True).lint_source(
            PATH, source
        )
        assert [f.rule for f in findings] == [STALE_NOQA_RULE_ID]
        assert "RS004" in findings[0].message
        assert suppressed == 1

    def test_audit_is_opt_in(self):
        """Library callers keep the old contract unless they ask."""
        source = "def f():\n    return 1  # repro: noqa[RS001]\n"
        findings, _ = LintEngine().lint_source(PATH, source)
        assert findings == []

    def test_stale_noqa_cannot_suppress_itself(self):
        source = "def f():\n    return 1  # repro: noqa[RS001, RS900]\n"
        findings, _ = LintEngine(audit_noqa=True).lint_source(PATH, source)
        assert STALE_NOQA_RULE_ID in [f.rule for f in findings]


class TestRuleCounts:
    def test_report_counts_by_rule(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(BAD_CLOCK + "\ndef g():\n    return time.time()\n")
        report = LintEngine().lint_paths([bad])
        assert report.rule_counts() == {"RS001": 2}
        assert "RS001" in report.stats()
        assert '"counts"' in report.to_json()

    def test_clean_tree_stats_render(self):
        report = LintEngine().lint_paths([])
        assert report.rule_counts() == {}
        assert "no findings" in report.stats()


class TestAuditScope:
    """Tier A audits its own ids and unknown ones, not another tier's."""

    def test_tier_c_suppression_is_not_stale_to_tier_a(self):
        source = "def f():\n    return 1  # repro: noqa[RS011]\n"
        findings, _ = LintEngine(audit_noqa=True).lint_source(PATH, source)
        assert findings == []

    def test_unknown_id_is_still_stale(self):
        source = "def f():\n    return 1  # repro: noqa[RS999, RS013]\n"
        findings, _ = LintEngine(audit_noqa=True).lint_source(PATH, source)
        assert [f.rule for f in findings] == [STALE_NOQA_RULE_ID]
        assert "RS999" in findings[0].message
