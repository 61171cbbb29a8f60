"""Documentation-consistency guards.

DESIGN.md names a module per experiment and any benchmark file it
cites; these tests keep the prose honest as the code evolves.
"""

import re
from pathlib import Path

from repro.experiments.common import REGISTRY

REPO = Path(__file__).resolve().parents[1]


def design_text() -> str:
    return (REPO / "DESIGN.md").read_text()


def test_every_registered_experiment_is_in_design_md():
    import repro.experiments  # noqa: F401

    text = design_text()
    for experiment_id in REGISTRY:
        assert f"**{experiment_id}**" in text, f"{experiment_id} missing from DESIGN.md"


def test_every_design_bench_target_exists():
    import repro.experiments  # noqa: F401

    text = design_text()
    for target in re.findall(r"`benchmarks/(bench_\w+\.py)`", text):
        assert (REPO / "benchmarks" / target).exists(), f"{target} promised but missing"


def test_experiments_md_covers_every_experiment():
    import repro.experiments  # noqa: F401

    text = (REPO / "EXPERIMENTS.md").read_text()
    for experiment_id in REGISTRY:
        assert f"## {experiment_id} " in text, f"{experiment_id} missing from EXPERIMENTS.md"


def test_readme_mentions_every_experiment():
    import repro.experiments  # noqa: F401

    text = (REPO / "README.md").read_text()
    for experiment_id in REGISTRY:
        assert experiment_id in text, f"{experiment_id} missing from README.md"
