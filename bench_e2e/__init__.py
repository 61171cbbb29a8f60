"""bench_e2e: one end-to-end benchmark for FungusDB, with per-layer accounting.

Run ``python -m bench_e2e run`` for all four workloads, or add
``--workload NAME --seed N --seconds S --trace 0|1`` for one. The
benchmark drives the program only through its public API; nothing under
``src/`` knows it exists. See ``README.md`` beside this file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

#: ``python -m bench_e2e`` imports this file first, so this is as close to
#: process start as Python code gets; ``setup_s`` is measured from here
STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` so ``import repro`` finds it."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"bench_e2e: no program to measure, {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
