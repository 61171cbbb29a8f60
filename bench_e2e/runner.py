"""Run one workload in this process and shape its result.

``--trace 0`` reports the end-to-end metrics from an unwrapped run.
``--trace 1`` reports the per-layer metrics: an unwrapped pass for the
timers and counts, then a second pass with ``trace.Recorder`` wrapping
the layer boundaries, so the tracing overhead is the ratio of the two.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_e2e import spec
from bench_e2e.stats import ratio

clock = time.perf_counter
SPAN_FILE_LIMIT = 200_000  # spans written to the JSONL, whole operations only


@dataclass
class Outcome:
    """What one run of one workload found."""

    workload: str
    trace: bool
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str]
    samples: dict[str, int] = field(default_factory=dict)
    spans_recorded: int = 0
    spans_written: int = 0

    @property
    def correct(self) -> bool:
        return not self.problems

    def contract_line(self) -> dict:
        """The object the driver reads from the last line of stdout."""
        units = spec.PER_LAYER if self.trace else spec.END_TO_END
        return {
            "correct": self.correct,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name][0]}
                for name in units
            },
        }


def setup_seconds(t0: float, timed_started: float, reps: list[float]) -> float:
    """Process start to timed phase, counting the repeated part once at its median."""
    return (timed_started - t0) - sum(reps) + statistics.median(reps)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    t0: float,
    spans_path: Path | None = None,
) -> Outcome:
    if name == "server_mix":
        return _run_server(seed, seconds, trace, smoke, t0)
    return _run_embedded(name, seed, seconds, trace, smoke, t0, spans_path)


def _run_server(seed: int, seconds: float, trace: bool, smoke: bool, t0: float) -> Outcome:
    from bench_e2e.server_mix import ServerMix

    mix = ServerMix(seed, seconds, smoke, trace)
    mix.run()
    if trace:
        metrics = dict.fromkeys(spec.PER_LAYER, 0.0)
        metrics.update(mix.per_layer())
    else:
        metrics = mix.end_to_end()
        metrics["setup_s"] = setup_seconds(t0, mix.timed_started, mix.setup_reps_s)
    return Outcome(
        "server_mix", trace, metrics, mix.attempted, mix.failed, mix.problems,
        samples=mix.sample_counts(),
    )


def _prepare(cls, seed: int, seconds: float, smoke: bool):
    """Generate and build ``setup_reps`` times; returns the last and each duration."""
    reps = []
    for _ in range(cls.setup_reps):
        started = clock()
        workload = cls(seed, seconds, smoke)
        workload.generate()
        workload.build()
        reps.append(clock() - started)
    return workload, reps


def _check_harness(workload) -> None:
    idle = workload.run_s - workload.busy_s
    if idle > 0.10 * workload.run_s:
        workload.problems.append(
            f"invalid: the harness took {idle:.2f} s of a {workload.run_s:.2f} s phase"
        )


def _run_embedded(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, t0: float,
    spans_path: Path | None,
) -> Outcome:
    from bench_e2e.embedded import WORKLOADS
    from bench_e2e.trace import Recorder

    cls = WORKLOADS[name]
    plain, reps = _prepare(cls, seed, seconds, smoke)
    timed_started = clock()
    plain.timed()
    rss = peak_rss_mb()  # before verify, which copies the table out
    _check_harness(plain)
    plain.verify()
    samples = {key: len(bucket) for key, bucket in plain.samples.items()}
    if not trace:
        metrics = plain.end_to_end()
        metrics["setup_s"] = setup_seconds(t0, timed_started, reps)
        metrics["run_s"] = plain.run_s
        metrics["peak_rss_mb"] = rss
        return Outcome(name, False, metrics, plain.attempted, plain.failed,
                       plain.problems, samples)

    metrics = dict.fromkeys(spec.PER_LAYER, 0.0)
    metrics.update(plain.layer_timers())
    metrics.update(plain.counts)

    recorder = Recorder()
    recorder.install()
    try:
        traced = cls(seed, seconds, smoke)
        traced.generate()
        traced.build()
        recorder.on = True
        traced.timed()
        recorder.on = False
    finally:
        recorder.uninstall()
    traced.verify()
    if traced.counts != plain.counts:
        traced.problems.append(
            "counts changed between two runs of one seed: "
            f"{plain.counts} then {traced.counts}"
        )
    layer_self = 0.0
    for span, (self_s, calls) in recorder.totals().items():
        if span in spec.SPANS:
            metrics[f"{span}.self_s"] = self_s
            metrics[f"{span}.calls"] = calls
            layer_self += self_s
    # harness.gen: what the timed phase spent outside the program's API
    metrics["harness.gen.self_s"] = traced.run_s - recorder.root_seconds()
    metrics["harness.gen.calls"] = sum(len(b) for b in traced.samples.values())
    metrics["trace.coverage_ratio"] = ratio(layer_self, traced.run_s)
    metrics["trace_overhead_ratio"] = ratio(traced.run_s, plain.run_s)
    outcome = Outcome(
        name, True, metrics,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.problems + traced.problems,
        samples, spans_recorded=len(recorder),
    )
    if spans_path is not None:
        outcome.spans_written = recorder.write_jsonl(spans_path, SPAN_FILE_LIMIT)
    return outcome
