"""``python -m repro.serve``: run and poke the network front-end.

Two subcommands:

``serve``
    Start a :class:`~repro.server.server.FungusServer` on a host/port,
    with tables declared on the command line
    (``--table readings=sensor:int,temp:float@linear:0.05``), an
    optional grant list (``--grant token:principal:readings=read+insert``),
    and a background decay tick.

``client``
    A line-oriented shell against a running server: plain lines run as
    strong SQL, ``\\s SELECT ...`` reads from the latest tick snapshot,
    ``.tick`` / ``.stats`` / ``.metrics`` hit the admin ops.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any

from repro.cli import parse_fungus_spec
from repro.core.db import FungusDB
from repro.errors import FungusError
from repro.obs.querystats import render_queries
from repro.obs.tracing import JsonlTraceExporter, Tracer
from repro.server.auth import RIGHTS, AuthRegistry, Grant
from repro.server.client import FungusClient, ServerError
from repro.server.server import FungusServer, ServerConfig
from repro.storage.schema import Schema


def _parse_table(spec: str) -> tuple[str, Schema, Any]:
    """``name=col:type,col:type[@fungus-spec]`` → (name, schema, fungus)."""
    name, sep, rest = spec.partition("=")
    if not sep or not name:
        raise SystemExit(f"bad --table {spec!r}: want name=col:type,...[@fungus]")
    columns, _, fungus_spec = rest.partition("@")
    named: dict[str, str] = {}
    for piece in columns.split(","):
        col, col_sep, type_name = piece.partition(":")
        if not col_sep or not col or not type_name:
            raise SystemExit(f"bad --table column {piece!r}: want name:type")
        named[col.strip()] = type_name.strip()
    try:
        schema = Schema.of(**named)
        fungus = parse_fungus_spec(fungus_spec) if fungus_spec else None
    except FungusError as exc:
        raise SystemExit(f"bad --table {spec!r}: {exc}") from exc
    return name, schema, fungus


def _parse_grant(spec: str) -> tuple[str, Grant]:
    """``token:principal[:table=r+r][:admin][:expires=N]`` → (token, Grant)."""
    parts = spec.split(":")
    if len(parts) < 2:
        raise SystemExit(f"bad --grant {spec!r}: want token:principal[:...]")
    token, principal, *extras = parts
    rights: dict[str, frozenset[str]] = {}
    admin = False
    expires: float | None = None
    for extra in extras:
        if extra == "admin":
            admin = True
        elif extra.startswith("expires="):
            expires = float(extra[len("expires="):])
        elif "=" in extra:
            table, _, right_spec = extra.partition("=")
            granted = frozenset(r.strip() for r in right_spec.split("+") if r.strip())
            unknown = granted - set(RIGHTS)
            if unknown:
                raise SystemExit(
                    f"bad --grant {spec!r}: unknown right(s) "
                    f"{', '.join(sorted(unknown))} for table {table!r} "
                    f"(valid: {', '.join(RIGHTS)})"
                )
            rights[table] = granted
        else:
            raise SystemExit(f"bad --grant segment {extra!r} in {spec!r}")
    grant = Grant(principal=principal, rights=rights, admin=admin, expires_at=expires)
    return token, grant


def _build_db(args: argparse.Namespace) -> FungusDB:
    db = FungusDB(seed=args.seed)
    for spec in args.table:
        name, schema, fungus = _parse_table(spec)
        db.create_table(name, schema, fungus=fungus)
    return db


async def _cmd_serve(args: argparse.Namespace) -> int:
    auth = None
    if args.grant:
        auth = AuthRegistry()
        for spec in args.grant:
            token, grant = _parse_grant(spec)
            auth.issue(token, grant)
    db = _build_db(args)
    if args.race_probe:
        db.enable_race_probe()
    if args.trace:
        db.tracer = Tracer(JsonlTraceExporter(args.trace))
    server = FungusServer(
        db,
        ServerConfig(
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            tick_interval=args.tick_interval,
            auth=auth,
            ops_port=args.ops_port,
            slow_threshold=args.slow_threshold,
        ),
    )
    await server.start()
    print(
        f"fungusdb serving on {args.host}:{server.port} "
        f"(tables: {', '.join(sorted(db.tables)) or 'none'}; "
        f"tick every {args.tick_interval}s; "
        f"auth: {'token' if auth else 'open'})"
    )
    if args.ops_port is not None:
        print(f"ops endpoint on http://{args.host}:{server.ops_port}/metrics")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
        db.tracer.close()
    return 0


async def _cmd_client(args: argparse.Namespace) -> int:
    try:
        client = await FungusClient.connect(args.host, args.port, token=args.token)
    except (ConnectionError, OSError) as exc:
        print(f"cannot connect to {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    print(f"connected as {client.principal} (session {client.session}); .help for help")
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                line = await loop.run_in_executor(None, input, "fungus> ")
            except (EOFError, KeyboardInterrupt):
                break
            line = line.strip()
            if not line:
                continue
            if line in (".quit", ".exit"):
                break
            try:
                await _client_command(client, line)
            except ServerError as exc:
                print(f"[{exc.code}] {exc.message}")
            except (ConnectionError, OSError) as exc:
                print(f"connection lost: {exc}", file=sys.stderr)
                return 1
    finally:
        await client.close()
    return 0


async def _client_command(client: FungusClient, line: str) -> None:
    if line == ".help":
        print(
            "SQL runs at strong consistency; \\s SELECT ... reads the tick\n"
            "snapshot; .tick [n] advances decay; .stats / .metrics /\n"
            ".sessions inspect the server; .queries shows the per-\n"
            "fingerprint statement statistics; .quit leaves"
        )
        return
    if line.startswith("\\s "):
        response = await client.query(line[3:], consistency="snapshot")
        _print_result(response)
        return
    if line.startswith(".tick"):
        _, _, n = line.partition(" ")
        now = await client.tick(int(n) if n.strip() else 1)
        print(f"tick -> {now:g}")
        return
    if line == ".stats":
        response = await client.request({"op": "stats"})
        print(json.dumps(response["stats"], indent=2, sort_keys=True))
        return
    if line == ".queries":
        response = await client.request({"op": "stats"})
        querystats = response["stats"].get("querystats", {})
        for out in render_queries(querystats.get("queries", [])):
            print(out)
        if querystats.get("evicted_total"):
            print(f"({querystats['evicted_total']} cold fingerprints evicted)")
        return
    if line == ".metrics":
        response = await client.request({"op": "metrics"})
        print(response["exposition"], end="")
        return
    if line == ".sessions":
        response = await client.request({"op": "sessions"})
        print(json.dumps(response["sessions"], indent=2))
        return
    response = await client.query(line)
    _print_result(response)


def _print_result(response: dict[str, Any]) -> None:
    columns = response.get("columns", [])
    rows = response.get("rows", [])
    print(" | ".join(str(c) for c in columns))
    for row in rows:
        print(" | ".join(str(v) for v in row))
    tail = f"({len(rows)} rows, tick {response.get('tick', '?')}"
    if response.get("consumed"):
        tail += f", consumed {response['consumed']}"
    print(tail + f", {response.get('consistency', 'strong')})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="command")

    serve = sub.add_parser("serve", help="run the server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7474)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--tick-interval", type=float, default=1.0)
    serve.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=COL:TYPE,...[@FUNGUS]",
        help="declare a decaying table, e.g. readings=sensor:int,temp:float@linear:0.05",
    )
    serve.add_argument(
        "--grant",
        action="append",
        default=[],
        metavar="TOKEN:PRINCIPAL[:TABLE=R+R][:admin][:expires=N]",
        help="issue a token; omitting all --grant flags runs the server open",
    )
    serve.add_argument(
        "--ops-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics, /healthz, /readyz, /debug/* here (0 = ephemeral)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="export request spans as JSONL to this file",
    )
    serve.add_argument(
        "--race-probe",
        action="store_true",
        help="arm the runtime thread-sanitizer: a table mutation off "
        "the owning engine worker raises at the offending call",
    )
    serve.add_argument(
        "--slow-threshold",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="requests slower than this land in /debug/slow (default 0.25)",
    )

    client = sub.add_parser("client", help="interactive shell against a server")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7474)
    client.add_argument("--token", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:
        build_parser().print_help()
        return 2
    runner = {
        "serve": _cmd_serve,
        "client": _cmd_client,
    }[args.command]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
