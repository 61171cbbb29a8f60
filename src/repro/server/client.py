"""A small asyncio client for the frame protocol.

Used by the test harness, the ``bench_e2e`` server workload, and the
interactive ``python -m repro.serve client`` shell. One client is one
connection is one session; requests are sequential per client by
construction (the protocol has no pipelining), which mirrors the
server's per-connection ordering guarantee. A caller that wants the
server to annotate a request with its own trace passes a W3C-shaped
``trace`` field in the payload (``client.query(sql, trace=...)``).
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.server.protocol import read_frame, write_frame


class ServerError(Exception):
    """The server answered ``ok: false``; carries the structured code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class FungusClient:
    """One connection to a :class:`~repro.server.server.FungusServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.session: str | None = None
        self.principal: str | None = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        token: str | None = None,
    ) -> "FungusClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        hello: dict[str, Any] = {"op": "hello"}
        if token is not None:
            hello["token"] = token
        response = await client.request(hello)
        client.session = response["session"]
        client.principal = response["principal"]
        return client

    async def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One round trip; raises :class:`ServerError` on ``ok: false``."""
        response = await self.request_raw(payload)
        if not response.get("ok"):
            raise ServerError(response.get("code", "?"), response.get("error", "?"))
        return response

    async def request_raw(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One round trip returning the raw response, errors included."""
        await write_frame(self.writer, payload)
        response = await read_frame(self.reader)
        if response is None:
            raise ConnectionError("server closed the connection")
        return response

    async def query(
        self, sql: str, consistency: str = "strong", **fields: Any
    ) -> dict[str, Any]:
        return await self.request(
            {"op": "query", "sql": sql, "consistency": consistency, **fields}
        )

    async def insert(self, table: str, row: dict[str, Any]) -> int:
        response = await self.request({"op": "insert", "table": table, "row": row})
        return int(response["rid"])

    async def tick(self, n: int = 1) -> float:
        response = await self.request({"op": "tick", "n": n})
        return float(response["tick"])

    async def close(self) -> None:
        try:
            await self.request_raw({"op": "bye"})
        except (ConnectionError, OSError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
