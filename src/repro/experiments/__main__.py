"""Run the whole experiment suite: ``python -m repro.experiments [scale]``.

Prints every experiment's report (tables, series, shape checks) and a
final pass/fail summary — the script that regenerates everything
EXPERIMENTS.md records.
"""

from __future__ import annotations

import sys

from repro.bench.reporting import render_result
from repro.bench.runner import run_all


def main(argv: list[str]) -> int:
    """Entry point; argv[0] may name a scale (smoke|paper)."""
    scale = argv[0] if argv else "paper"
    results = run_all(scale=scale)
    for result in results:
        print(render_result(result))
        for name, passed in result.checks.items():
            marker = "PASS" if passed else "FAIL"
            tag = " (wall-clock)" if name in result.wall_clock_checks else ""
            print(f"  [{marker}] {name}{tag}")
        print()
    failed = [r.experiment_id for r in results if not r.all_checks_pass]
    print("=" * 72)
    if failed:
        print(f"shape checks FAILED in: {', '.join(failed)}")
        return 1
    print(f"all shape checks passed across {len(results)} experiments ({scale} scale)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
