"""Concurrency guarantees of the network front-end.

Three promises, each with a test that would catch its violation:

1. **Per-client ordering** — a connection's responses come back in
   request order, even when many connections are interleaving and the
   engine worker is reordering *across* clients.
2. **No torn reads** — a snapshot read never observes a decay tick
   half-applied: every row inserted at the same tick shows the same
   freshness, always.
3. **Serializability** — the server's final state is bit-identical to
   a single-threaded replay of its merged op log into a fresh engine
   with the same seed; and for the deterministic fungi, both agree
   with the sim suite's closed-form :class:`~repro.sim.oracle.Oracle`.
"""

from __future__ import annotations

import asyncio
import random

from repro.server.protocol import read_frame, write_frame
from repro.sim.oracle import FungusSpec, Oracle

from tests.server.harness import (
    connect,
    raw_connection,
    replay_oplog,
    running_server,
    seeded_db,
    table_state,
)


class TestPerClientOrdering:
    def test_pipelined_frames_answer_in_order(self):
        """Write a burst of frames, then read: ids echo in send order."""

        async def scenario():
            db = seeded_db()
            async with running_server(db) as server:

                async def one_client(cid: int) -> None:
                    reader, writer = await raw_connection(server.port)
                    try:
                        await write_frame(writer, {"op": "hello", "id": "h"})
                        hello = await read_frame(reader)
                        assert hello is not None and hello["ok"]
                        sent = []
                        for j in range(25):
                            frame_id = f"c{cid}-{j}"
                            sent.append(frame_id)
                            if j % 3 == 0:
                                payload = {
                                    "op": "insert",
                                    "table": "r",
                                    "row": {"k": cid * 1000 + j, "v": j},
                                    "id": frame_id,
                                }
                            else:
                                payload = {
                                    "op": "query",
                                    "sql": "SELECT k FROM r",
                                    "id": frame_id,
                                }
                            await write_frame(writer, payload)
                        got = []
                        for _ in sent:
                            response = await read_frame(reader)
                            assert response is not None and response["ok"]
                            got.append(response["id"])
                        assert got == sent
                    finally:
                        writer.close()
                        await writer.wait_closed()

                await asyncio.gather(*(one_client(cid) for cid in range(8)))

        asyncio.run(scenario())


class TestNoTornReads:
    def test_snapshot_freshness_is_never_mixed(self):
        """Rows born at the same tick decay in lockstep, to every reader.

        All rows go in at tick 0, so at any *boundary* they share one
        freshness value. A reader overlapping a mid-flight tick on the
        live arrays would see a mix; the snapshot must never show one.
        """

        async def scenario():
            from repro.core.db import FungusDB
            from repro.fungi import LinearDecayFungus
            from repro.storage.schema import Schema

            db = FungusDB(seed=3)
            db.create_table(
                "r",
                Schema.of(k="int"),
                fungus=LinearDecayFungus(rate=0.002),
            )
            for k in range(400):
                db.insert("r", {"k": k})
            async with running_server(db, tick_interval=0.003) as server:

                async def reader_client() -> int:
                    client = await connect(server)
                    nonempty = 0
                    try:
                        for _ in range(40):
                            response = await client.query(
                                "SELECT f FROM r", consistency="snapshot"
                            )
                            values = {row[0] for row in response["rows"]}
                            assert len(values) <= 1, (
                                f"torn snapshot read: {sorted(values)}"
                            )
                            if values:
                                nonempty += 1
                    finally:
                        await client.close()
                    return nonempty

                counts = await asyncio.gather(*(reader_client() for _ in range(4)))
                # the assertion above is vacuous on empty results; make
                # sure the readers actually raced live decay
                assert sum(counts) > 0
                assert server.metrics.ticks.labels().value > 0

        asyncio.run(scenario())


def _run_mixed_workload(
    seed: int, fungus: str, workers: int = 4, ops: int = 30
) -> tuple:
    """Drive a server with interleaved clients; return (oplog, state, clock).

    ``workers`` connections insert/select/consume ``ops`` times each,
    concurrently, while one more advances the decay clock; every strong
    op lands in the op log in worker execution order.
    """

    async def scenario():
        db = seeded_db(seed=seed, fungus=fungus)
        # closed loop: one request in flight per connection, so this
        # queue bound can never answer BUSY
        async with running_server(db, queue_limit=workers + 1) as server:

            async def worker(cid: int) -> None:
                rng = random.Random(seed * 100 + cid)
                client = await connect(server)
                try:
                    for j in range(ops):
                        roll = rng.random()
                        if roll < 0.5:
                            await client.insert(
                                "r",
                                {"k": cid * 1000 + j, "v": rng.randrange(100)},
                            )
                        elif roll < 0.85:
                            await client.query("SELECT k, v FROM r WHERE v >= 50")
                        else:
                            await client.query(
                                "CONSUME SELECT k FROM r WHERE v < 25"
                            )
                finally:
                    await client.close()

            async def ticker() -> None:
                client = await connect(server)
                try:
                    for _ in range(12):
                        await client.tick(1)
                        await asyncio.sleep(0.001)
                finally:
                    await client.close()

            await asyncio.gather(*(worker(cid) for cid in range(workers)), ticker())
            oplog = list(server.oplog)
            state = table_state(server.db, "r")
            clock = server.db.clock.now
        return oplog, state, clock

    return asyncio.run(scenario())


class TestReplayOracle:
    def test_final_state_matches_single_threaded_replay(self):
        """Across 5 seeds and both deterministic fungi: bit-identical.

        The last case trades depth for width: 64 connections racing
        8 ops each through the same oracle.
        """
        for seed, fungus, workers, ops in [
            (11, "linear", 4, 30),
            (12, "exponential", 4, 30),
            (13, "linear", 4, 30),
            (14, "exponential", 4, 30),
            (15, "linear", 4, 30),
            (31, "linear", 64, 8),
        ]:
            oplog, state, clock = _run_mixed_workload(seed, fungus, workers, ops)
            assert any(entry[0] == "query" for entry in oplog)
            assert any(entry[0] == "tick" for entry in oplog)
            replayed = replay_oplog(oplog, seed=seed, fungus=fungus)
            assert replayed.clock.now == clock
            assert table_state(replayed, "r") == state, (
                f"seed {seed} ({fungus}, {workers} connections): replay diverged"
            )

    def test_replay_agrees_with_sim_oracle(self):
        """Third leg: the closed-form model reaches the same live set.

        The oracle models Laws 1 and 2 as naive lists with the exact
        same float operations — replaying the server's op log into it
        must produce the same surviving keys with the same freshness.
        """
        oplog, state, _ = _run_mixed_workload(21, "linear")

        oracle = Oracle()
        oracle.create_table("r", FungusSpec("linear", rate=0.1))
        for entry in oplog:
            if entry[0] == "insert":
                _, _, row = entry
                oracle.insert("r", key=row["k"], attrs={"v": row["v"]})
            elif entry[0] == "tick":
                oracle.tick(entry[1])
            elif entry[1].startswith("CONSUME"):
                # the workload's one consume shape: WHERE v < 25
                oracle.consume("r", lambda row: row.attrs["v"] < 25)

        model = [(row.key, row.f) for row in oracle.tables["r"].rows]
        # server state rows are (t, f, k, v) in schema order
        served = [(row[2], row[1]) for row in state]
        assert served == model
