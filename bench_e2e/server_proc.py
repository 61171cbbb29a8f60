"""The server_mix server, in a process of its own.

Started by ``server_mix.py`` as ``python -m bench_e2e.server_proc``. It
builds the database, starts the server on kernel-chosen ports, prints
one JSON line ``{"port": .., "ops_port": .., "pid": ..}`` and serves
until its standard input closes. A dead parent closes that pipe too, so
the server never outlives the benchmark. On the way out it prints a
second JSON line with its peak memory and the final table size.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import resource
import sys

from bench_e2e import inputs, use_repo_sources


async def serve(seed: int, rows: int) -> None:
    from repro import FungusDB, LinearDecayFungus, Schema
    from repro.server.server import FungusServer, ServerConfig

    db = FungusDB(seed=seed)
    db.create_table(
        "readings",
        Schema.of(sensor="int", temp="float"),
        fungus=LinearDecayFungus(rate=0.002),
    )
    db.catalog.create_hash_index("readings", "sensor")
    rng = random.Random(seed)
    batch = [
        {"sensor": i % inputs.SERVER_SENSORS, "temp": rng.gauss(22.0, 4.0)}
        for i in range(rows)
    ]
    db.insert_many("readings", batch)
    server = FungusServer(
        db, ServerConfig(queue_limit=64, tick_interval=0.25, ops_port=0)
    )
    await server.start()
    try:
        print(
            json.dumps({"port": server.port, "ops_port": server.ops_port}),
            flush=True,
        )
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    finally:
        await server.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(
        json.dumps(
            {"peak_rss_mb": peak_kib / 1024.0, "extent": db.extent("readings")}
        ),
        flush=True,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    args = parser.parse_args()
    use_repo_sources()
    asyncio.run(serve(args.seed, args.rows))


if __name__ == "__main__":
    main()
