"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`FungusError`, so
callers can catch one base class. Subsystems raise the most specific
subclass available; error messages always name the offending object
(table, column, token, ...) to keep failures diagnosable.
"""

from __future__ import annotations


class FungusError(Exception):
    """Base class for every error raised by the repro library."""


class SchemaError(FungusError):
    """A schema is malformed: duplicate/unknown columns, bad types."""


class StorageError(FungusError):
    """Low-level storage failure: bad row id, type mismatch on append."""


class CatalogError(FungusError):
    """Catalog misuse: unknown table, duplicate table name."""


class SnapshotError(FungusError):
    """Persistence failure: unreadable or inconsistent snapshot file."""


class QueryError(FungusError):
    """Base class for query-processing errors."""


class TokenizeError(QueryError):
    """The lexer hit an unrecognised character sequence."""


class ParseError(QueryError):
    """The parser could not build an AST from the token stream."""


class PlanError(QueryError):
    """The planner rejected a semantically invalid query."""


class ExecutionError(QueryError):
    """An operator failed at run time (e.g. type error in expression)."""


class DecayError(FungusError):
    """Misconfigured fungus or decay policy."""


class EventFanoutError(FungusError):
    """Multiple event-bus subscribers raised during one fan-out.

    Carries every ``(handler, exception)`` pair in :attr:`failures`;
    ``__cause__`` is the first failure. A single failing subscriber
    re-raises its original exception instead.
    """

    def __init__(self, event_name: str, failures):
        self.event_name = event_name
        self.failures = list(failures)
        handlers = ", ".join(repr(handler) for handler, _ in self.failures)
        super().__init__(
            f"{len(self.failures)} subscribers failed during {event_name} "
            f"fan-out: {handlers}"
        )


class ObsError(FungusError):
    """Observability misuse: bad metric/label name, corrupt trace."""


class ConsumeError(FungusError):
    """Law-2 consume semantics violated or misused."""


class DistillError(FungusError):
    """Summary distillation failed (unknown sketch, bad column)."""


class SketchError(FungusError):
    """A sketch was constructed or merged with invalid parameters."""


class WorkloadError(FungusError):
    """Workload generator misconfiguration."""


class BenchError(FungusError):
    """Benchmark harness misuse (unknown experiment, bad sweep)."""
