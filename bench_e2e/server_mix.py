"""server_mix: the network front-end under a seeded request mix.

The server runs in its own process (``server_proc.py``); this module is
the load generator, one asyncio loop with two ``FungusClient``
connections, one per core of the box the bounds were set on.

Phase A is a **closed loop**: each connection sends its next request when
the reply to the last one arrives, which is how a pooled application
connection behaves. It replays a fixed request list, so ``run_s`` is the
time the server needs for that list. Phase B (``--trace 1`` only) is an
**open loop** at 40 requests a second: every request is timed from the
moment it was due, so a stall is charged to every request it delays, and
the generator reports how late it sent. Phase B's tail moved by 70 %
between identical runs at the seed, so it feeds per-layer metrics only.

Server-side numbers come from outside the process: ``/metrics`` is
scraped once before and once after phase A, never during it, and CPU
time is read from ``/proc``.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from typing import Any

from repro.obs.export import parse_prometheus
from repro.server.client import FungusClient

from bench_e2e import ROOT, inputs
from bench_e2e.spec import SERVER_STAGES
from bench_e2e.stats import p_ms, ratio

clock = time.perf_counter
HOST = "127.0.0.1"
CLIENTS = 2
OPEN_RATE = 40.0  # phase B requests per second, all connections together


class ServerChild:
    """The server process; always reaped, whatever happens in between."""

    def __init__(self, seed: int, rows: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "bench_e2e.server_proc",
             "--seed", str(seed), "--rows", str(rows)],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ports = self._read_json(timeout=60.0)
        except BaseException:
            self.kill()
            raise
        self.port: int = ports["port"]
        self.ops_port: int = ports["ops_port"]

    def _read_json(self, timeout: float) -> dict[str, Any]:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the server process said nothing and may have died")
        return json.loads(line)

    def stop(self) -> dict[str, Any]:
        """Close its stdin, which asks it to stop; returns its closing report."""
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        report = self._read_json(timeout=30.0)
        self.proc.wait(timeout=30.0)
        return report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server so far, from ``/proc``."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def scrape(port: int) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """GET ``/metrics`` from the ops listener, parsed."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write(f"GET /metrics HTTP/1.0\r\nHost: {HOST}\r\n\r\n".encode("ascii"))
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0]:
        raise ConnectionError(f"/metrics answered {head[:60]!r}")
    return parse_prometheus(body.decode("utf-8"))


class Tally:
    """What the replies said: latencies by request kind, failures, row flow."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {
            kind: [] for kind, _ in inputs.SERVER_MIX
        }
        self.late: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.inserted = 0
        self.consumed = 0

    def record(self, kind: str, seconds: float, reply: dict[str, Any]) -> None:
        self.attempted += 1
        self.latencies[kind].append(seconds)
        if not reply.get("ok"):
            self.failed += 1  # BUSY and every other refusal count as failures
        elif kind == "insert":
            self.inserted += 1
        elif kind == "consume":
            self.consumed += int(reply.get("consumed", 0))

    def all_latencies(self) -> list[float]:
        return [value for bucket in self.latencies.values() for value in bucket]


async def closed_loop(
    clients: list[FungusClient], plans: list[list[tuple[str, dict[str, Any]]]]
) -> tuple[Tally, float]:
    """Each connection replays its plan, one request in flight; returns wall time."""
    tally = Tally()

    async def replay(client: FungusClient, plan: list[tuple[str, dict[str, Any]]]) -> None:
        for kind, payload in plan:
            started = clock()
            reply = await client.request_raw(payload)
            tally.record(kind, clock() - started, reply)

    started = clock()
    await asyncio.gather(*(replay(c, p) for c, p in zip(clients, plans)))
    return tally, clock() - started


async def open_loop(
    clients: list[FungusClient], plans: list[list[tuple[str, dict[str, Any]]]]
) -> Tally:
    """Requests fall due every ``1 / OPEN_RATE`` s, dealt round-robin."""
    tally = Tally()
    origin = clock() + 0.05

    async def replay(index: int, client: FungusClient,
                     plan: list[tuple[str, dict[str, Any]]]) -> None:
        for i, (kind, payload) in enumerate(plan):
            due = origin + (i * len(clients) + index) / OPEN_RATE
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            tally.late.append(max(0.0, clock() - due))
            reply = await client.request_raw(payload)
            tally.record(kind, clock() - due, reply)

    await asyncio.gather(
        *(replay(i, c, p) for i, (c, p) in enumerate(zip(clients, plans)))
    )
    return tally


def stage_metrics(
    before: dict, after: dict, requests: int, client_mean_ms: float
) -> dict[str, float]:
    """Diff two ``/metrics`` scrapes into per-stage means and the reconciliation."""
    sums = dict.fromkeys(SERVER_STAGES, 0.0)
    counts = dict.fromkeys(SERVER_STAGES, 0.0)
    for (name, labels), value in after.items():
        if not name.startswith("repro_server_stage_seconds_"):
            continue
        stage = dict(labels).get("stage", "").replace(".", "_")
        delta = value - before.get((name, labels), 0.0)
        if name.endswith("_sum"):
            sums[stage] += delta
        elif name.endswith("_count"):
            counts[stage] += delta
    out = {
        f"server.stage.{stage}.mean_ms": 1000.0 * ratio(sums[stage], counts[stage])
        for stage in SERVER_STAGES
    }
    stage_sum_ms = 1000.0 * ratio(sum(sums.values()), requests)
    out["server.stage_sum_ms_per_req"] = stage_sum_ms
    out["server.unaccounted_ms_per_req"] = client_mean_ms - stage_sum_ms
    lag = after.get(("repro_server_ticker_lag_seconds", ()), 0.0)
    out["server.ticker_lag_ms"] = 1000.0 * lag
    return out


class ServerMix:
    """Runs the workload and keeps what the two metric sets need."""

    setup_reps = 3

    def __init__(self, seed: int, seconds: float, smoke: bool, trace: bool) -> None:
        self.seed = seed
        self.trace = trace
        scale = seconds / 20.0
        self.rows = 1500 if smoke else 5000
        self.warm_requests = 20 if smoke else 60  # per connection
        self.closed_requests = 100 if smoke else max(500, round(800 * scale))
        self.open_requests = 20 if smoke else max(100, round(160 * scale))
        self.problems: list[str] = []
        self.setup_reps_s: list[float] = []
        self.layer: dict[str, float] = {}

    def run(self) -> None:
        rng = random.Random(self.seed)
        total = self.warm_requests + self.closed_requests
        total += self.open_requests if self.trace else 0
        plans = [inputs.server_requests(rng, total) for _ in range(CLIENTS)]
        # set-up is starting a seeded server: do it setup_reps times, drive the last
        for rep in range(self.setup_reps):
            started = clock()
            server = ServerChild(self.seed, self.rows)
            try:
                self.setup_reps_s.append(clock() - started)
                if rep == self.setup_reps - 1:
                    asyncio.run(self._drive(server, plans))
                report = server.stop()
            finally:
                server.kill()
        self.peak_rss_mb = report["peak_rss_mb"]
        self._verify(report["extent"])

    async def _drive(
        self, server: ServerChild, plans: list[list[tuple[str, dict[str, Any]]]]
    ) -> None:
        clients = [await FungusClient.connect(HOST, server.port) for _ in plans]
        try:
            warm, closed = self.warm_requests, self.closed_requests
            self.warm, _ = await closed_loop(clients, [p[:warm] for p in plans])
            before = await scrape(server.ops_port) if self.trace else {}
            cpu_server, cpu_self = server.cpu_seconds(), time.process_time()
            self.timed_started = clock()
            self.closed, self.run_s = await closed_loop(
                clients, [p[warm:warm + closed] for p in plans]
            )
            cpu_server = server.cpu_seconds() - cpu_server
            self.loadgen_cpu_s = time.process_time() - cpu_self
            if not self.trace:
                return
            after = await scrape(server.ops_port)
            requests = self.closed.attempted
            mean_ms = 1000.0 * statistics.fmean(self.closed.all_latencies())
            self.layer = stage_metrics(before, after, requests, mean_ms)
            self.layer["server.client_mean_ms"] = mean_ms
            self.layer["server.cpu_ms_per_req"] = 1000.0 * ratio(cpu_server, requests)
            self.open = await open_loop(clients, [p[warm + closed:] for p in plans])
        finally:
            for client in clients:
                await client.close()

    def _verify(self, extent_end: int) -> None:
        phases = [self.warm, self.closed] + ([self.open] if self.trace else [])
        inserted = sum(t.inserted for t in phases)
        consumed = sum(t.consumed for t in phases)
        self.attempted = sum(t.attempted for t in phases)
        self.failed = sum(t.failed for t in phases)
        if self.failed:
            self.problems.append(f"{self.failed} requests were refused or failed")
        if extent_end != self.rows + inserted - consumed:
            self.problems.append(
                f"server holds {extent_end} rows; {self.rows} seeded + {inserted} "
                f"inserted - {consumed} consumed = {self.rows + inserted - consumed}"
            )
        if abs(extent_end - self.rows) > 0.10 * self.rows:
            self.problems.append(
                f"extent drifted to {extent_end}, over 10 % from {self.rows} seed rows"
            )
        if self.loadgen_cpu_s > 0.10 * self.run_s:
            # the connections wait on the server almost all the time; a generator
            # that burns more than this is measuring itself
            self.problems.append(
                f"invalid: load generator used {self.loadgen_cpu_s:.2f} s CPU "
                f"in a {self.run_s:.2f} s phase"
            )

    def end_to_end(self) -> dict[str, float]:
        latencies = self.closed.latencies
        return {
            "run_s": self.run_s,
            "primary_p50_ms": p_ms(latencies["snapshot"], 50),
            "secondary_p50_ms": p_ms(latencies["insert"], 50),
            "tail_ms": p_ms(self.closed.all_latencies(), 95),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        latencies = self.closed.latencies
        return {
            **self.layer,
            "server.req_per_s": ratio(self.closed.attempted, self.run_s),
            "server.strong_p50_ms": p_ms(latencies["strong"], 50),
            "server.consume_p50_ms": p_ms(latencies["consume"], 50),
            "server.open40.p50_ms": p_ms(self.open.all_latencies(), 50),
            "server.open40.p95_ms": p_ms(self.open.all_latencies(), 95),
            "loadgen.late_p95_ms": p_ms(self.open.late, 95),
            "loadgen.cpu_s": self.loadgen_cpu_s,
            "trace_overhead_ratio": 1.0,  # nothing is wrapped on this workload
        }

    def sample_counts(self) -> dict[str, int]:
        counts = {kind: len(v) for kind, v in self.closed.latencies.items()}
        counts["all"] = self.closed.attempted
        if self.trace:
            counts["open40"] = self.open.attempted
        return counts
