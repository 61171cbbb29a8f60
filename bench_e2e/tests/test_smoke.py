"""Smoke test of the benchmark itself: ``pytest bench_e2e/tests``.

Two ``run --smoke`` passes with one seed (about 10 s each). Not part of
the repo's tier-1 suite, which collects ``tests/`` only.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench_e2e import spec  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EMBEDDED = ("ingest_decay", "query_scan", "consume_cook")


def smoke(out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "bench_e2e", "run", "--smoke", "--seed", "7",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((out / "results.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> tuple[dict, dict]:
    base = tmp_path_factory.mktemp("bench_e2e")
    return smoke(base / "first"), smoke(base / "second")


def test_benchmark_json_matches_spec() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    } == spec.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    } == spec.PER_LAYER


def test_every_metric_is_emitted_on_every_workload(runs) -> None:
    first, _ = runs
    for workload in spec.WORKLOADS:
        entry = first["workloads"][workload]
        assert entry["correct"], entry["problems"]
        for kind in ("end_to_end", "per_layer"):
            wanted = {m["name"] for m in BENCHMARK[kind]}
            assert set(entry[kind]) == wanted, (workload, kind)
        for name, metric in entry["end_to_end"].items():
            assert metric["value"] > 0, (workload, name)


def test_metric_names_are_plain() -> None:
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_exact_counts_repeat_under_one_seed(runs) -> None:
    first, second = runs
    for workload in EMBEDDED:
        for name in spec.EXACT_COUNTS:
            a = first["workloads"][workload]["per_layer"][name]["value"]
            b = second["workloads"][workload]["per_layer"][name]["value"]
            assert a == b, (workload, name)
        assert first["workloads"][workload]["per_layer"]["core.rows_inserted"]["value"] > 0


def test_results_record_the_environment(runs) -> None:
    meta = runs[0]["meta"]
    for key in ("nproc", "python", "numpy", "git_commit", "seed"):
        assert key in meta
