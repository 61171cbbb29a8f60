"""Run the whole experiment suite: ``python -m repro.experiments [scale]``.

Prints every experiment's report (tables, series, shape checks) and a
final pass/fail summary — the script that regenerates everything
EXPERIMENTS.md records.
"""

from __future__ import annotations

import sys

from repro.experiments.common import SCALES, run_all
from repro.experiments.report import render_result


def main(argv: list[str]) -> int:
    """Entry point; argv[0] may name a scale (smoke|paper).

    Anything else (``--help`` included) prints the usage and returns 2
    before any experiment starts.
    """
    if len(argv) > 1 or (argv and argv[0] not in SCALES):
        print(
            f"usage: python -m repro.experiments [{'|'.join(SCALES)}]",
            file=sys.stderr,
        )
        return 2
    scale = argv[0] if argv else "paper"
    results = run_all(scale=scale)
    for result in results:
        print(render_result(result))
        for name, passed in result.checks.items():
            print(f"  [{'PASS' if passed else 'FAIL'}] {name}")
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
