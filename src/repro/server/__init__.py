"""FungusDB over the network: the asyncio front-end.

The paper's fungus-database only pays off when many owners feed and
query it at once. This package puts a validated, access-controlled
network boundary in front of the embedded engine:

* :mod:`repro.server.protocol` — length-prefixed JSON frames;
* :mod:`repro.server.auth` — token-based principals with per-table
  rights and logical-clock expiry;
* :mod:`repro.server.policy` — the plan-time gatekeeper (a statement
  is parsed, planned and Tier-B-analyzed *before* execution; a session
  lacking CONSUME rights on a table is refused without touching data);
* :mod:`repro.server.session` — per-connection session state;
* :mod:`repro.server.admission` — bounded-queue admission control with
  explicit ``BUSY`` backpressure and drain support;
* :mod:`repro.server.snapshot` — tick-boundary snapshots: frozen
  column copies queried by the same vectorized executor as strong
  reads, so read-only queries never block behind a mid-flight decay
  tick and never observe a torn one;
* :mod:`repro.server.server` — :class:`FungusServer`, wiring it all to
  an :mod:`asyncio` TCP listener (``python -m repro.serve``);
* :mod:`repro.server.ops` — the ops plane: the slow-query ring and the
  embedded HTTP listener serving ``/metrics``, ``/healthz``,
  ``/readyz`` and the ``/debug/*`` views.

Threading model (the whole design in one paragraph): the event loop
owns connections, framing, auth and admission; a single worker thread
owns the engine. Every mutating or strongly-consistent operation is a
job on that worker, so engine state is still strictly single-writer —
exactly the discipline the storage layer documents. Snapshot reads are
served loop-side from the immutable :class:`~repro.server.snapshot.TickSnapshot`
published at each tick boundary, which is what keeps readers
responsive while Law 1 grinds through a large relation.
"""

from repro.server.auth import AuthError, AuthRegistry, Grant
from repro.server.admission import AdmissionController
from repro.server.client import FungusClient, ServerError
from repro.server.ops import OpsServer, SlowQueryLog
from repro.server.policy import AccessDenied, Gatekeeper
from repro.server.protocol import (
    Code,
    FrameError,
    MAX_FRAME,
    decode_frame,
    encode_frame,
    read_frame,
)
from repro.server.server import FungusServer, ServerConfig
from repro.server.session import Session, SessionManager
from repro.server.snapshot import TickSnapshot

__all__ = [
    "AccessDenied",
    "AdmissionController",
    "AuthError",
    "AuthRegistry",
    "Code",
    "FrameError",
    "FungusClient",
    "FungusServer",
    "Gatekeeper",
    "ServerError",
    "Grant",
    "MAX_FRAME",
    "OpsServer",
    "ServerConfig",
    "Session",
    "SessionManager",
    "SlowQueryLog",
    "TickSnapshot",
    "decode_frame",
    "encode_frame",
    "read_frame",
]
