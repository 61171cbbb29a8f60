"""Rot-safety static analysis.

Two tiers:

* **Tier A** (:mod:`repro.lint.engine`, :mod:`repro.lint.rules`) — an
  AST-walking linter over the codebase itself, enforcing the
  invariants the paper's two Laws rest on: logical-clock-only time,
  seeded-RNG-only randomness, chained raises, catalogued metric
  names, sanctioned freshness mutation, published events. Run it with
  ``python -m repro.lint [paths]``.
* **Tier B** — static analysis of ``CONSUME SELECT`` statements
  before execution — is part of the query engine
  (:mod:`repro.query.analyze`, behind ``EXPLAIN CONSUME``). This
  package only runs it over SQL embedded in python sources
  (``python -m repro.lint sql``, :mod:`repro.lint.sqlscan`).
"""

from repro.lint.engine import Finding, LintEngine, LintReport, ModuleSource, Rule
from repro.lint.rules import CATALOGUE_VERSION, default_rules

__all__ = [
    "CATALOGUE_VERSION",
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleSource",
    "Rule",
    "default_rules",
]
