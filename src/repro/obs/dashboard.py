"""``python -m repro obs`` — a live rot dashboard in the terminal.

Renders, once per tick batch, the observable rot state of every table
in a running :class:`~repro.core.db.FungusDB`:

* extent / exhausted / pinned / tombstone ratio per table;
* freshness-band occupancy as a proportional bar
  (``#`` fresh, ``+`` stale, ``.`` rotten);
* a **rot map**: the allocated rid space downsampled to one character
  per bucket (`` `` = hole, i.e. every row in the bucket tombstoned),
  so EGI's contiguous "Blue Cheese" spots are visible as runs of
  ``.`` melting into holes;
* rot spots / holes counts from :func:`~repro.core.health.measure_health`;
* eviction / consume EWMA rates when telemetry is attached;
* a **top queries** panel — the heaviest statement fingerprints by
  cumulative latency — when the query-statistics store is attached.

:func:`render_frame` is a pure function of the database state — the
tests call it directly; :func:`main` wires it to a demo workload loop
(insert rows, tick, redraw) and optionally dumps the Prometheus
exposition to a file each frame.

With ``--server http://HOST:OPS_PORT`` the dashboard also scrapes a
running server's ops endpoint each frame and overlays a live panel —
qps (requests-total delta over the frame interval), queue depth,
ticker lag, sessions, and the slow-request count.
:func:`fetch_server_stats` does the scrape (through the strict
:func:`~repro.obs.export.parse_prometheus` oracle, so a malformed
exposition is an error, not a garbage panel);
:func:`render_server_panel` is pure and test-driven like
:func:`render_frame`.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.db import FungusDB
from repro.core.freshness import FreshnessBand, band_of
from repro.core.health import measure_health
from repro.obs.export import parse_prometheus
from repro.storage.schema import Schema
from repro.storage.vector import numpy

BAND_CHARS = {
    FreshnessBand.FRESH: "#",
    FreshnessBand.STALE: "+",
    FreshnessBand.ROTTEN: ".",
}
HOLE_CHAR = " "


def _band_bar(counts: dict[FreshnessBand, int], width: int) -> str:
    """Proportional occupancy bar, always exactly ``width`` chars."""
    total = sum(counts.values())
    if total == 0:
        return "-" * width
    cells: list[str] = []
    for band in (FreshnessBand.FRESH, FreshnessBand.STALE, FreshnessBand.ROTTEN):
        cells.extend(BAND_CHARS[band] * round(counts[band] / total * width))
    # rounding can over/undershoot by a char or two; clamp to width
    bar = "".join(cells)[:width]
    return bar.ljust(width, BAND_CHARS[FreshnessBand.ROTTEN] if counts[FreshnessBand.ROTTEN] else "#")


def _rot_map(table, width: int) -> str:
    """The allocated rid space, one char per bucket of rids.

    A bucket renders as a hole only when *every* row in it is gone;
    otherwise it shows the band of its mean live freshness. The bucket
    sums and live counts come from one ``reduceat`` each over the
    freshness array and the live mask. numpy sums pairwise, so a mean
    can differ from a running sum in its last bits; only a mean that
    close to a band threshold could render differently.
    """
    storage = table.storage
    allocated = storage.allocated
    if allocated == 0:
        return "-" * width
    width = min(width, allocated)
    # width <= allocated, so every bucket holds at least one rid
    starts = numpy.arange(width) * allocated // width
    live = storage.live_mask()
    counts = numpy.add.reduceat(live, starts, dtype=numpy.int64).tolist()
    fresh = numpy.where(live, storage.freshness_array(), 0.0)
    sums = numpy.add.reduceat(fresh, starts).tolist()
    return "".join(
        BAND_CHARS[band_of(total / count)] if count else HOLE_CHAR
        for total, count in zip(sums, counts)
    )


def render_frame(db: FungusDB, width: int = 60) -> str:
    """One dashboard frame for ``db``'s current state, as text."""
    lines = [f"FungusDB rot dashboard — clock t={db.clock.now:g}"]
    telemetry = getattr(db, "telemetry", None)
    for name in sorted(db.tables):
        table = db.tables[name]
        health = measure_health(table)
        ratio = (
            table.storage.tombstones / table.storage.allocated
            if table.storage.allocated
            else 0.0
        )
        lines.append("")
        lines.append(
            f"table {name}: extent={health.extent} exhausted={health.exhausted} "
            f"pinned={health.pinned} tombstones={ratio:.0%}"
        )
        bands = {
            FreshnessBand.FRESH: health.fresh_count,
            FreshnessBand.STALE: health.stale_count,
            FreshnessBand.ROTTEN: health.rotten_count,
        }
        lines.append(
            f"  bands [{_band_bar(bands, width)}] "
            f"{health.fresh_count}#/{health.stale_count}+/{health.rotten_count}."
        )
        lines.append(f"  rotmap [{_rot_map(table, width)}]")
        lines.append(
            f"  spots={len(health.rot_spots)} (largest {health.largest_rot_spot}) "
            f"holes={len(health.holes)} (largest {health.largest_hole}) "
            f"edible={health.edible_fraction:.0%}"
        )
        if telemetry is not None:
            registry = telemetry.registry
            evict = registry.value("repro_eviction_rate", table=name)
            consume = registry.value("repro_consume_rate", table=name)
            lines.append(
                f"  rates evict={evict:.3f}/tick consume={consume:.3f}/tick"
            )
        forensics = getattr(db, "forensics", None)
        if forensics is not None:
            causes: dict[str, int] = {}
            for record in forensics.deaths(name):
                causes[record.cause] = causes.get(record.cause, 0) + 1
            cause_text = (
                " ".join(f"{cause}={n}" for cause, n in sorted(causes.items()))
                or "none"
            )
            lines.append(f"  deaths {cause_text}")
    forensics = getattr(db, "forensics", None)
    if forensics is not None:
        active = forensics.active_alerts()
        lines.append("")
        if active:
            lines.append(f"ALERTS ({len(active)} firing):")
            for table_name, rule, value in active:
                lines.append(f"  [{table_name}] {rule}  (value {value:g})")
        else:
            lines.append(f"alerts: none firing ({len(forensics.rules)} rule(s) armed)")
    querystats = getattr(db, "querystats", None)
    if querystats is not None:
        from repro.obs.querystats import render_queries

        lines.append("")
        lines.append("top queries (by cumulative latency):")
        entries = querystats.top(5, by="seconds")
        if entries:
            lines.extend(f"  {row}" for row in render_queries(entries))
        else:
            lines.append("  (no statements recorded yet)")
    legend = f"legend: {BAND_CHARS[FreshnessBand.FRESH]}=fresh " \
             f"{BAND_CHARS[FreshnessBand.STALE]}=stale " \
             f"{BAND_CHARS[FreshnessBand.ROTTEN]}=rotten (space)=hole"
    lines.append("")
    lines.append(legend)
    return "\n".join(lines)


def fetch_server_stats(url: str) -> dict[str, float]:
    """Scrape ``url``/metrics into the handful of panel-worthy numbers.

    Counters with labels (requests, slow) are summed across label sets;
    gauges are read as-is (0.0 when the family has no samples yet).
    """
    import urllib.request

    with urllib.request.urlopen(url.rstrip("/") + "/metrics", timeout=5.0) as fh:
        text = fh.read().decode("utf-8")
    samples = parse_prometheus(text)

    def total(family: str) -> float:
        return sum(v for (name, _), v in samples.items() if name == family)

    return {
        "requests": total("repro_server_requests_total"),
        "rejected": total("repro_server_rejected_total"),
        "slow": total("repro_server_slow_requests_total"),
        "queue_depth": total("repro_server_queue_depth"),
        "sessions": total("repro_server_sessions_active"),
        "ticker_lag": total("repro_server_ticker_lag_seconds"),
    }


def render_server_panel(
    stats: dict[str, float],
    previous: dict[str, float] | None,
    interval: float,
) -> str:
    """The live-server overlay for one frame, as text (pure).

    qps is the requests-total delta against the ``previous`` scrape over
    ``interval`` seconds; the first frame (no previous) shows ``--``.
    """
    if previous is not None and interval > 0:
        delta = max(0.0, stats["requests"] - previous["requests"])
        qps = f"{delta / interval:.0f}"
    else:
        qps = "--"
    return (
        f"server: qps={qps} queue={stats['queue_depth']:g} "
        f"sessions={stats['sessions']:g} slow={stats['slow']:g} "
        f"rejected={stats['rejected']:g} "
        f"ticker_lag={stats['ticker_lag'] * 1e3:.1f}ms"
    )


def build_demo_db(seed: int, fungus_spec: str) -> FungusDB:
    """A one-table demo database driven by the CLI fungus spec."""
    from repro.cli import parse_fungus_spec

    db = FungusDB(seed=seed)
    db.create_table(
        "demo",
        Schema.of(sensor="str", value="float"),
        fungus=parse_fungus_spec(fungus_spec),
    )
    db.enable_telemetry()
    db.enable_querystats()
    return db


def main(argv: list[str] | None = None) -> int:
    """Dashboard entry point (``python -m repro obs``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Live rot dashboard over a demo FungusDB decay loop.",
    )
    parser.add_argument("--seed", type=int, default=7, help="demo RNG seed")
    parser.add_argument("--ticks", type=int, default=60, help="total decay ticks")
    parser.add_argument(
        "--interval", type=float, default=0.25, help="seconds between frames"
    )
    parser.add_argument(
        "--rows-per-tick", type=int, default=3, help="ingest rate of the demo feed"
    )
    parser.add_argument(
        "--fungus", default="egi:2,0.2", help="fungus spec (see the repro shell help)"
    )
    parser.add_argument(
        "--once", action="store_true", help="render a single frame and exit"
    )
    parser.add_argument("--width", type=int, default=60, help="bar/map width")
    parser.add_argument(
        "--prom", metavar="PATH", help="also write the Prometheus exposition here"
    )
    parser.add_argument(
        "--no-clear", action="store_true", help="append frames instead of redrawing"
    )
    parser.add_argument(
        "--forensics",
        action="store_true",
        help="attach death provenance + the default rot-rate alert rules",
    )
    parser.add_argument(
        "--server",
        metavar="URL",
        help="overlay live qps/queue/slow stats scraped from a running "
        "server's ops endpoint, e.g. http://127.0.0.1:9474",
    )
    args = parser.parse_args(argv)

    db = build_demo_db(args.seed, args.fungus)
    if args.forensics:
        from repro.obs.forensics import DEFAULT_RULES

        db.enable_forensics(rules=DEFAULT_RULES)
    import random

    rng = random.Random(args.seed)

    previous_stats: dict[str, float] | None = None

    def emit_frame() -> None:
        nonlocal previous_stats
        frame = render_frame(db, width=args.width)
        if not args.no_clear and sys.stdout.isatty():
            sys.stdout.write("\x1b[2J\x1b[H")
        print(frame)
        if args.server:
            try:
                stats = fetch_server_stats(args.server)
            except OSError as exc:
                print(f"server: scrape failed ({exc})")
            else:
                print(render_server_panel(stats, previous_stats, args.interval))
                previous_stats = stats
        if args.prom:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(db.telemetry.exposition())

    ticks = 1 if args.once else args.ticks
    for tick in range(ticks):
        for _ in range(args.rows_per_tick):
            db.insert(
                "demo",
                {"sensor": f"s{rng.randrange(4)}", "value": round(rng.uniform(0, 100), 2)},
            )
        db.tick(1)
        if tick % 7 == 6:  # an occasional Law-2 bite keeps holes visible
            db.query("CONSUME SELECT * FROM demo WHERE value > 90")
        emit_frame()
        if not args.once and args.interval > 0:
            time.sleep(args.interval)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
