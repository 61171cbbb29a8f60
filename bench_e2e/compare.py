"""``python -m bench_e2e compare A.json B.json``: B against A, metric by metric.

One row per workload and end-to-end metric: both medians, the ratio B/A
with its base, the bound, and a verdict. ``worse`` means B is beyond the
bound in the bad direction. ``unresolved`` means it is not, but either
file's own runs (``run --repeat N``) spread wider than the bound, so
"unchanged" cannot be claimed. A file with one run per workload has no
spread to show and can only give ``ok`` or ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from bench_e2e import spec


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median; 0.0 for under 4 values."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: dict, other: dict, better: str, bound: float) -> tuple[float, str]:
    """(ratio other/base, ok | worse | unresolved) for one metric."""
    ratio = other["value"] / base["value"]
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worsening > bound:
        return ratio, "worse"
    if max(spread(base["values"]), spread(other["values"])) > bound:
        return ratio, "unresolved"
    return ratio, "ok"


def compare_files(base_path: Path, other_path: Path) -> int:
    base = json.loads(base_path.read_text(encoding="utf-8"))
    other = json.loads(other_path.read_text(encoding="utf-8"))
    print(f"base  {base_path}: {base['meta']}")
    print(f"other {other_path}: {other['meta']}")
    print(f"{'workload':13s} {'metric':17s} {'base':>12s} {'other':>12s} "
          f"{'other/base':>10s} {'bound':>6s}  verdict")
    worse = 0
    for workload in spec.WORKLOADS:
        for name, (unit, better, bound) in spec.END_TO_END.items():
            a = base["workloads"][workload]["end_to_end"][name]
            b = other["workloads"][workload]["end_to_end"][name]
            ratio, word = verdict(a, b, better, bound)
            worse += word == "worse"
            print(f"{workload:13s} {name:17s} {a['value']:>12.5g} {b['value']:>12.5g} "
                  f"{ratio:>10.4f} {bound:>6.2f}  {word} ({unit}, {better} is better)")
        a, b = base["workloads"][workload], other["workloads"][workload]
        if b["fail_ratio"] > a["fail_ratio"]:
            worse += 1
            print(f"{workload:13s} fail_ratio        {a['fail_ratio']:>12.5g} "
                  f"{b['fail_ratio']:>12.5g}  no increase allowed  worse")
    return 1 if worse else 0
