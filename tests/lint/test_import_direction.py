"""The product does not import its linter.

Under ``src/repro/`` only ``repro/lint/`` itself and ``cli.py`` (the
shell's ``lint`` command prints the rule catalogue) may import
``repro.lint``. The query engine, the server and the core reach the
cost model and the Tier-B consume analyzer through ``repro.query``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _imported(tree: ast.Module, package: tuple[str, ...]):
    """Every dotted name an import statement in ``tree`` binds;
    ``package`` resolves relative imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else ()
            module = ".".join((*base, *([node.module] if node.module else [])))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_linter_and_the_shell_import_repro_lint():
    offenders = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        if path != SRC / "cli.py" and SRC / "lint" not in path.parents
        for name in _imported(
            ast.parse(path.read_text(encoding="utf-8")),
            ("repro", *path.relative_to(SRC).parent.parts),
        )
        if name == "repro.lint" or name.startswith("repro.lint.")
    )
    assert offenders == []


def test_the_walk_sees_every_import_form():
    tree = ast.parse(
        "from ..lint import rules\n"
        "from repro import lint\n"
        "import repro.lint.engine\n"
        "def f():\n"
        "    from repro.lint.sqlscan import scan\n"
    )
    names = set(_imported(tree, ("repro", "query")))
    assert {
        "repro.lint.rules",
        "repro.lint",
        "repro.lint.engine",
        "repro.lint.sqlscan",
    } <= names
