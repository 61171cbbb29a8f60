"""Command line: ``python -m bench_e2e run`` and ``python -m bench_e2e compare``.

``run --workload NAME --seed N --seconds S --trace 0|1`` runs one
workload in this process and prints its result as one JSON object on the
last line of standard output. ``run`` without ``--workload`` runs all
four that way, each in a fresh child process, untraced then traced, and
writes one results JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

from bench_e2e import ROOT, STARTED, spec, use_repo_sources

DEFAULT_OUT = ROOT / "bench_e2e" / "out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench_e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload, or all four")
    run.add_argument("--workload", choices=spec.WORKLOADS)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=20.0,
                     help="schedule length: what the seed commit needs this long for")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--smoke", action="store_true",
                     help="tiny tables and schedules; same code paths")
    run.add_argument("--repeat", type=int, default=1,
                     help="untraced runs per workload (all-workload mode)")
    run.add_argument("--out", type=Path, default=DEFAULT_OUT,
                     help="directory for results.json and span files")
    run.add_argument("--spans", type=Path, help="write the traced run's spans here")
    compare = commands.add_parser("compare", help="compare two results files")
    compare.add_argument("base", type=Path)
    compare.add_argument("other", type=Path)
    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench_e2e.compare import compare_files

        return compare_files(args.base, args.other)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    use_repo_sources()
    from bench_e2e.runner import run_workload

    outcome = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, STARTED,
        args.spans,
    )
    units = spec.PER_LAYER if outcome.trace else spec.END_TO_END
    for name in units:
        print(f"{name:40s} {outcome.metrics[name]:>16.6g} {units[name][0]}")
    for problem in outcome.problems:
        print(f"PROBLEM: {problem}")
    detail = {
        "samples": outcome.samples,
        "problems": outcome.problems,
        "spans_recorded": outcome.spans_recorded,
        "spans_written": outcome.spans_written,
    }
    print("detail: " + json.dumps(detail))
    print(json.dumps(outcome.contract_line()))
    return 0 if outcome.correct else 1


# ----------------------------------------------------------------------
# all workloads, each in a child process
# ----------------------------------------------------------------------


class ChildRun(NamedTuple):
    """One child process: its contract line, its detail line, its exit code."""

    line: dict
    detail: dict
    code: int


def _child(args: argparse.Namespace, workload: str, trace: int) -> ChildRun:
    command = [
        sys.executable, "-m", "bench_e2e", "run", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace:
        command += ["--spans", str(args.out / f"spans-{workload}.jsonl")]
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        raise RuntimeError(f"{workload} --trace {trace} printed no result:\n{done.stdout}")
    return ChildRun(
        json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):]), done.returncode
    )


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args: argparse.Namespace) -> int:
    use_repo_sources()
    import numpy

    args.out.mkdir(parents=True, exist_ok=True)
    results: dict = {
        "meta": {
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "repeat": args.repeat,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": _git_commit(),
        },
        "workloads": {},
    }
    failed = False
    for workload in spec.WORKLOADS:
        entry: dict = {"end_to_end": {}}
        results["workloads"][workload] = entry
        runs = [_child(args, workload, 0) for _ in range(args.repeat)]
        traced = _child(args, workload, 1)
        children = runs + [traced]
        for name, (unit, _, bound) in spec.END_TO_END.items():
            values = [run.line["metrics"][name]["value"] for run in runs]
            entry["end_to_end"][name] = {
                "value": statistics.median(values), "unit": unit, "bound": bound,
                "values": values,
            }
        entry["per_layer"] = traced.line["metrics"]
        entry["attempted"] = sum(run.line["attempted"] for run in children)
        entry["failed"] = sum(run.line["failed"] for run in children)
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        entry["samples"] = runs[0].detail["samples"]
        entry["slots"] = spec.SLOTS[workload]
        entry["spans_recorded"] = traced.detail["spans_recorded"]
        entry["spans_written"] = traced.detail["spans_written"]
        entry["problems"] = [p for run in children for p in run.detail["problems"]]
        entry["correct"] = all(run.code == 0 for run in children)
        failed = failed or not entry["correct"]
        _print_workload(workload, entry)
    path = args.out / "results.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")
    return 1 if failed else 0


def _print_workload(workload: str, entry: dict) -> None:
    traced_run_s = (
        entry["end_to_end"]["run_s"]["value"]
        * entry["per_layer"]["trace_overhead_ratio"]["value"]
    )
    print(f"\n== {workload}  (correct={entry['correct']}, "
          f"fail_ratio={entry['fail_ratio']:.4g}, samples={entry['samples']})")
    for name, metric in entry["end_to_end"].items():
        slot = entry["slots"].get(name, "")
        print(f"  {name:38s} {metric['value']:>14.6g} {metric['unit']:6s} {slot}")
    for name, metric in entry["per_layer"].items():
        if metric["value"]:
            share = ""
            if name.endswith(".self_s"):
                share = f"{100.0 * metric['value'] / traced_run_s:5.1f} % of the traced run"
            print(f"    {name:36s} {metric['value']:>14.6g} {metric['unit']:6s} {share}")
    for problem in entry["problems"]:
        print(f"  PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
