"""Tier-A rule engine: AST lint over the codebase itself.

The engine walks python files, parses each once into a
:class:`ModuleSource`, and hands the module to every registered
:class:`Rule`. Rules yield :class:`Finding` objects; the engine
applies per-line suppressions (``# repro: noqa[RS0xx]`` on the
flagged line) and aggregates everything into a :class:`LintReport`
that can render as human-readable lines or JSON.

Rules are plain classes — adding one means subclassing :class:`Rule`,
setting ``id``/``title``/``rationale``, and implementing ``check``.
The default set lives in :mod:`repro.lint.rules`.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable, Iterator, Sequence

#: per-line suppression marker: ``# repro: noqa[RS0xx]`` or
#: ``# repro: noqa[RS0xx, RS0yy]`` on the finding's physical line.
NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9_,\s]+)\]")

#: pseudo-rule id for files the engine cannot parse at all.
SYNTAX_RULE_ID = "RS000"

#: pseudo-rule id for ``# repro: noqa[...]`` comments that no longer
#: suppress anything — a stale suppression is itself a lint error.
STALE_NOQA_RULE_ID = "RS900"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class ModuleSource:
    """A parsed module plus the raw lines (for noqa lookups)."""

    def __init__(self, path: Path, text: str) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.lines = text.splitlines()

    def suppressed_at(self, line: int) -> frozenset[str]:
        """Rule ids suppressed on the given 1-based physical line."""
        if 1 <= line <= len(self.lines):
            match = NOQA_RE.search(self.lines[line - 1])
            if match:
                return frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
        return frozenset()

    def noqa_comments(self) -> dict[int, frozenset[str]]:
        """Every suppression comment: 1-based line -> declared rule ids."""
        found: dict[int, frozenset[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = NOQA_RE.search(text)
            if match:
                ids = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
                if ids:
                    found[number] = ids
        return found


class Rule:
    """Base class for lint rules.

    Subclasses set the class-level metadata and implement ``check``;
    ``applies_to`` restricts a rule to part of the tree (path-based,
    so moving a file in or out of a restricted package changes what
    is enforced on it — deliberately).
    """

    id: ClassVar[str] = "RS999"
    title: ClassVar[str] = ""
    rationale: ClassVar[str] = ""

    def applies_to(self, path: Path) -> bool:
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


@dataclass
class LintReport:
    """Aggregated result of one lint run."""

    findings: list[Finding]
    files: int
    suppressed: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def human(self) -> str:
        lines = [f.format() for f in self.findings]
        summary = (
            f"{len(self.findings)} finding(s) in {self.files} file(s)"
            f" ({self.suppressed} suppressed)"
        )
        lines.append(summary)
        return "\n".join(lines)

    def rule_counts(self) -> dict[str, int]:
        """Unsuppressed finding count per rule id, sorted by id."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def stats(self) -> str:
        """A per-rule hit-count table (``--stats``)."""
        counts = self.rule_counts()
        lines = [f"  {rule}  {count}" for rule, count in counts.items()]
        if not lines:
            lines = ["  (no findings)"]
        header = (
            f"per-rule findings over {self.files} file(s), "
            f"{self.suppressed} suppressed:"
        )
        return "\n".join([header, *lines])

    def to_json(self) -> str:
        payload = {
            "files": self.files,
            "suppressed": self.suppressed,
            "counts": self.rule_counts(),
            "findings": [f.to_dict() for f in self.findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class LintEngine:
    """Runs a rule set over files and directories."""

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        audit_noqa: bool = False,
    ) -> None:
        if rules is None:
            from repro.lint.rules import default_rules

            rules = default_rules()
        self.rules: list[Rule] = list(rules)
        #: when set, a ``# repro: noqa[RS0xx]`` comment that suppressed
        #: nothing is reported as an RS900 finding (the CLI turns this
        #: on; library callers opt in). Only ids this engine runs, and
        #: ids no tier defines (a typo), are audited: a Tier-C id is
        #: the flow engine's to judge.
        self.audit_noqa = audit_noqa
        self._unaudited: frozenset[str] = frozenset()
        if audit_noqa:
            from repro.lint.flow import default_checkers
            from repro.lint.rules import default_rules

            defined = {r.id for r in (*default_rules(), *default_checkers())}
            self._unaudited = frozenset(defined - {rule.id for rule in self.rules})

    def lint_source(self, path: Path, text: str) -> tuple[list[Finding], int]:
        """Lint one in-memory module; returns (findings, suppressed)."""
        try:
            module = ModuleSource(path, text)
        except SyntaxError as exc:
            finding = Finding(
                rule=SYNTAX_RULE_ID,
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"cannot parse file: {exc.msg}",
            )
            return [finding], 0
        findings: list[Finding] = []
        suppressed = 0
        used: dict[int, set[str]] = {}
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            for finding in rule.check(module):
                if finding.rule in module.suppressed_at(finding.line):
                    suppressed += 1
                    used.setdefault(finding.line, set()).add(finding.rule)
                else:
                    findings.append(finding)
        if self.audit_noqa:
            findings.extend(self._stale_noqa(module, used))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings, suppressed

    def _stale_noqa(
        self, module: ModuleSource, used: dict[int, set[str]]
    ) -> Iterator[Finding]:
        """RS900 findings for audited suppression ids that suppressed nothing."""
        for line, declared in sorted(module.noqa_comments().items()):
            for rule_id in sorted(declared - used.get(line, set()) - self._unaudited):
                yield Finding(
                    rule=STALE_NOQA_RULE_ID,
                    path=str(module.path),
                    line=line,
                    col=0,
                    message=(
                        f"stale suppression: noqa[{rule_id}] no longer "
                        "suppresses any finding on this line — delete it"
                    ),
                )

    def lint_file(self, path: Path) -> tuple[list[Finding], int]:
        return self.lint_source(path, path.read_text(encoding="utf-8"))

    def lint_paths(self, paths: Iterable[str | Path]) -> LintReport:
        """Lint every ``.py`` file under the given files/directories."""
        findings: list[Finding] = []
        suppressed = 0
        files = 0
        for target in self._expand(paths):
            files += 1
            file_findings, file_suppressed = self.lint_file(target)
            findings.extend(file_findings)
            suppressed += file_suppressed
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintReport(findings=findings, files=files, suppressed=suppressed)

    @staticmethod
    def _expand(paths: Iterable[str | Path]) -> list[Path]:
        seen: set[Path] = set()
        ordered: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                candidates: Iterable[Path] = sorted(path.rglob("*.py"))
            else:
                candidates = [path]
            for candidate in candidates:
                if candidate not in seen:
                    seen.add(candidate)
                    ordered.append(candidate)
        return ordered
