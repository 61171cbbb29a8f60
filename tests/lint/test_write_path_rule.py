"""RS007's write-path scope: no per-row insert loops where rows go in."""

from pathlib import Path

from repro.lint import LintEngine
from repro.lint.rules import BatchMutatorRule

FIXTURES = Path(__file__).parent / "fixtures" / "repro" / "core"


def test_rs007_write_path_fixture_pair():
    """Per-row table writes and per-tuple publishes are flagged; a batch passes."""
    bad = LintEngine().lint_paths([FIXTURES / "checkpoint.py"])
    assert [f.rule for f in bad.findings] == ["RS007"] * 4, bad.human()
    assert [f.message.split("(")[0] for f in bad.findings] == [
        "per-row restore",
        "per-row insert",
        "per-row append",
        "per-row publish",
    ]
    assert all("insert_many" in f.message for f in bad.findings)
    good = LintEngine().lint_paths([FIXTURES / "table.py"])
    assert good.findings == [], good.human()


def test_rs007_write_path_scope():
    rule = BatchMutatorRule()
    for module in (
        "src/repro/storage/table.py",
        "src/repro/core/table.py",
        "src/repro/core/checkpoint.py",
        "src/repro/query/executor.py",
    ):
        assert rule.applies_to(Path(module)), module
    # loads a file line by line into a list, then appends one batch
    assert not rule.applies_to(Path("src/repro/storage/snapshot.py"))
    # one-row inserts interleaved with queries and ticks, by design
    assert not rule.applies_to(Path("src/repro/workload/trace.py"))
