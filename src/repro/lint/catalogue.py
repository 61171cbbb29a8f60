"""Metric-catalogue loader for the RS004 lint rule.

RS004 requires every metric name handed to the registry to be a
literal ``repro_*`` string that a DESIGN.md catalogue table documents.
This module parses those tables with the same grammar the
catalogue-consistency tests use, so the linter and the tests can never disagree about
what "catalogued" means.

There may be more than one catalogue: the engine's event-driven series
live under "### Metric catalogue" and the network front-end's under
"Server metric catalogue" (inside the "Server & sessions" section).
Any heading ending in "metric catalogue" (case-insensitive) opens a
table; each table is read up to the next heading or a "Design points:"
terminator.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

CATALOGUE_HEADING = "### Metric catalogue"

_HEADING_RE = re.compile(r"^#{2,5}\s.*metric catalogue\s*$", flags=re.M | re.I)
_NEXT_HEADING_RE = re.compile(r"^#{1,5}\s", flags=re.M)
_ROW_RE = re.compile(r"^\|\s*`(repro_[a-z_]+)`\s*\|", flags=re.M)

_cache: dict[Path, Optional[frozenset[str]]] = {}


def _section_body(text: str, start: int) -> str:
    """The slice from ``start`` to the next heading / "Design points:"."""
    section = text[start:]
    stop = len(section)
    next_heading = _NEXT_HEADING_RE.search(section)
    if next_heading is not None:
        stop = next_heading.start()
    terminator = section.find("Design points:")
    if 0 <= terminator < stop:
        stop = terminator
    return section[:stop]


def parse_catalogue_names(text: str) -> Optional[frozenset[str]]:
    """Extract the documented metric names from DESIGN.md text.

    Collects rows from *every* ``... metric catalogue`` section, so the
    server's table contributes alongside the engine's.
    """
    names: set[str] = set()
    for match in _HEADING_RE.finditer(text):
        names.update(_ROW_RE.findall(_section_body(text, match.end())))
    return frozenset(names) if names else None


def find_design_file(start: Path) -> Optional[Path]:
    """Walk up from ``start`` looking for a DESIGN.md with a catalogue."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate_dir in [current, *current.parents]:
        candidate = candidate_dir / "DESIGN.md"
        if candidate.is_file():
            return candidate
    return None


def load_metric_catalogue(start: Path) -> Optional[frozenset[str]]:
    """Catalogued metric names for the repo containing ``start``.

    Returns ``None`` when no DESIGN.md (or no catalogue table inside
    one) can be found — RS004 then skips the membership check and
    only enforces the literal-``repro_*`` shape.
    """
    design = find_design_file(start)
    if design is None:
        return None
    if design not in _cache:
        try:
            _cache[design] = parse_catalogue_names(
                design.read_text(encoding="utf-8")
            )
        except OSError:
            _cache[design] = None
    return _cache[design]
