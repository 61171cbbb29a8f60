"""Token-based principals with per-table rights and logical expiry.

A :class:`Grant` names a principal, the tables it may touch and with
which rights (``read``, ``insert``, ``consume``), and — optionally — a
logical-clock tick after which the token stops working. Expiry is
measured on the *decay clock*, not wall time, for the same reason the
rest of the tree bans ``time.time()``: the database's notion of "when"
is the tick, and an auth decision that consulted a different clock
would be unreplayable.

The registry is deliberately small: tokens map to grants, grants are
checked at use time (so a token that expires mid-session loses its
rights on the next request, not at some future reconnect), and a
server constructed without a registry runs open — every connection
gets the anonymous all-rights grant, which is the embedded-engine
behaviour the rest of the test-suite expects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The rights a grant can hold on a table.
RIGHTS = ("read", "insert", "consume")

#: Table name that stands for "every table" in a rights map.
WILDCARD = "*"


class AuthError(Exception):
    """Authentication failed; ``code`` is a :class:`~repro.server.protocol.Code`."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Grant:
    """What one token is allowed to do, and until when.

    ``rights`` maps table name (or ``"*"``) to a frozenset of right
    names. ``expires_at`` is a logical tick: the grant is dead once
    ``clock.now >= expires_at``. ``admin`` short-circuits every check,
    including the elevated right needed for total-consume statements.
    """

    principal: str
    rights: dict[str, frozenset[str]] = field(default_factory=dict)
    admin: bool = False
    expires_at: float | None = None

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at

    def allows(self, table: str, right: str) -> bool:
        if self.admin:
            return True
        for scope in (table, WILDCARD):
            if right in self.rights.get(scope, frozenset()):
                return True
        return False

    @classmethod
    def open_grant(cls, principal: str = "anonymous") -> "Grant":
        """The all-rights grant used when no registry is configured."""
        return cls(principal=principal, rights={WILDCARD: frozenset(RIGHTS)}, admin=True)

    @classmethod
    def of(
        cls,
        principal: str,
        *,
        admin: bool = False,
        expires_at: float | None = None,
        **table_rights: str,
    ) -> "Grant":
        """Convenience builder: ``Grant.of("ana", orders="read,consume")``.

        Table names that are not valid keyword identifiers (or the
        wildcard) can be added to ``rights`` directly.
        """
        rights = {
            table: frozenset(r.strip() for r in spec.split(",") if r.strip())
            for table, spec in table_rights.items()
        }
        for table, granted in rights.items():
            unknown = granted - set(RIGHTS)
            if unknown:
                raise ValueError(f"unknown rights {sorted(unknown)} for table {table!r}")
        return cls(principal=principal, rights=rights, admin=admin, expires_at=expires_at)


class AuthRegistry:
    """Token → :class:`Grant` lookup with logical-tick expiry."""

    def __init__(self) -> None:
        self._grants: dict[str, Grant] = {}

    def issue(self, token: str, grant: Grant) -> Grant:
        self._grants[token] = grant
        return grant

    def authenticate(self, token: str | None, now: float) -> Grant:
        """Resolve a token or raise :class:`AuthError` with the precise code."""
        from repro.server.protocol import Code

        if token is None:
            raise AuthError(Code.AUTH_REQUIRED, "this server requires a token")
        grant = self._grants.get(token)
        if grant is None:
            raise AuthError(Code.AUTH_FAILED, "unknown token")
        if grant.expired(now):
            raise AuthError(
                Code.AUTH_EXPIRED,
                f"token for {grant.principal!r} expired at tick {grant.expires_at:g}",
            )
        return grant

    def __len__(self) -> int:
        return len(self._grants)
