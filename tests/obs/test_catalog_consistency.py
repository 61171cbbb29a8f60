"""The metric catalogue must match what the runtime actually emits.

Two documents promise the ``repro_*`` series: DESIGN.md's "Metric
catalogue" table and the :mod:`repro.obs.collector` docstring. These
tests hold both to the registry the collector really builds, in both
directions — a series added in code without a catalogue row fails, as
does a catalogue row whose series no longer exists.
"""

import re
from pathlib import Path

from repro.core.db import FungusDB
from repro.fungi import LinearDecayFungus
from repro.obs.collector import BusCollector
from repro.obs.export import parse_prometheus
from repro.storage.schema import Schema

REPO = Path(__file__).resolve().parents[2]

#: DESIGN.md documents EWMA families as "ewma→gauge" (Prometheus has
#: no rate type); the registry kind is "ewma".
KIND_ALIASES = {"ewma→gauge": "ewma"}


def registry_series() -> dict[str, tuple[str, tuple[str, ...]]]:
    """``{name: (kind, labels)}`` for every family the collector registers."""
    registry = BusCollector().registry
    return {
        family.name: (family.kind, tuple(family.labelnames))
        for family in registry.families()
    }


def design_catalogue() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Parse DESIGN.md's catalogue table into ``{name: (kind, labels)}``."""
    text = (REPO / "DESIGN.md").read_text()
    section = text.split("### Metric catalogue", 1)[1].split("Design points:", 1)[0]
    rows = re.findall(
        r"^\|\s*`(repro_[a-z_]+)`\s*\|\s*([^|]+?)\s*\|\s*([^|]+?)\s*\|",
        section,
        flags=re.M,
    )
    assert rows, "DESIGN.md metric catalogue table not found"
    catalogue: dict[str, tuple[str, tuple[str, ...]]] = {}
    for name, kind, labels in rows:
        kind = KIND_ALIASES.get(kind, kind)
        catalogue[name] = (
            kind, tuple(l.strip() for l in labels.split(",") if l.strip())
        )
    return catalogue


def docstring_catalogue() -> dict[str, tuple[str, tuple[str, ...]]]:
    """Parse the collector module docstring's catalogue block."""
    import repro.obs.collector as collector_module

    rows = re.findall(
        r"^``(repro_\w+)``\s+(\w+)\s+([\w, ]+?)\s*$",
        collector_module.__doc__,
        flags=re.M,
    )
    assert rows, "collector docstring catalogue not found"
    return {
        name: (kind, tuple(l.strip() for l in labels.split(",")))
        for name, kind, labels in rows
    }


def test_every_runtime_series_is_in_design_md():
    catalogue = design_catalogue()
    for name, (kind, labels) in registry_series().items():
        assert name in catalogue, f"{name} emitted but not in DESIGN.md catalogue"
        doc_kind, doc_labels = catalogue[name]
        assert doc_kind == kind, f"{name}: DESIGN.md says {doc_kind}, code says {kind}"
        assert doc_labels == labels, (
            f"{name}: DESIGN.md labels {doc_labels}, code labels {labels}"
        )


def test_every_design_md_series_exists_at_runtime():
    series = registry_series()
    for name in design_catalogue():
        assert name in series, f"{name} catalogued in DESIGN.md but never emitted"


def test_docstring_catalogue_matches_registry_exactly():
    series = registry_series()
    documented = docstring_catalogue()
    assert set(documented) == set(series)
    for name, (kind, labels) in documented.items():
        real_kind, real_labels = series[name]
        assert kind == real_kind, f"{name}: docstring {kind} vs code {real_kind}"
        assert labels == real_labels


def test_exposition_only_emits_catalogued_series():
    """No series leaves the process that the catalogue doesn't own."""
    catalogue = set(design_catalogue())
    db = FungusDB(seed=1)
    tel = db.enable_telemetry()
    db.enable_forensics(rules=["extent > 1"])
    db.create_table("r", Schema.of(v="int"), fungus=LinearDecayFungus(rate=0.4))
    for i in range(8):
        db.insert("r", {"v": i})
    db.tick(3)
    db.query("CONSUME SELECT v FROM r WHERE v < 3")
    db.tick(1)
    for name, _ in parse_prometheus(tel.exposition()):
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        assert name in catalogue or base in catalogue, (
            f"exposition emits uncatalogued series {name}"
        )
