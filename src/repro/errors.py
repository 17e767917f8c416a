"""Exception hierarchy for the :mod:`repro` library.

All errors raised deliberately by the library derive from
:class:`ReproError`, so callers can catch a single base class.  The
subclasses mirror the library's subsystems, so a caller can catch one
family per layer: tree construction, the event algebra, query
parsing/evaluation, update application, XML (de)serialization and
warehouse storage.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TreeError",
    "EventError",
    "UnknownEventError",
    "InvalidProbabilityError",
    "InconsistentConditionError",
    "QueryError",
    "PatternSyntaxError",
    "QueryCancelledError",
    "QueryParseError",
    "UpdateError",
    "XMLFormatError",
    "WarehouseError",
    "WarehouseLockedError",
    "WarehouseCorruptError",
    "SessionClosedError",
    "ShardUnavailableError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class TreeError(ReproError):
    """Invalid tree construction or manipulation (e.g. cycles, bad labels)."""


class EventError(ReproError):
    """Base class for errors in the probabilistic event algebra."""


class UnknownEventError(EventError):
    """An event name was used that is not registered in the event table."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown event: {name!r}")
        self.name = name


class InvalidProbabilityError(EventError):
    """A probability outside the closed interval [0, 1] was supplied."""

    def __init__(self, value: float) -> None:
        super().__init__(f"probability must lie in [0, 1], got {value!r}")
        self.value = value


class InconsistentConditionError(EventError):
    """A condition simultaneously requires an event and its negation."""


class QueryError(ReproError):
    """Invalid query structure or evaluation failure."""


class PatternSyntaxError(QueryError):
    """The TPWJ text syntax could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


#: Backwards-compatible alias; the canonical name is
#: :class:`PatternSyntaxError` since the session API unification.
QueryParseError = PatternSyntaxError


class QueryCancelledError(QueryError):
    """A streamed query was abandoned by its abort hook before exhaustion.

    Raised from inside a :class:`~repro.api.results.RowStream` opened
    with an *abort* callable (see :meth:`ResultSet.stream`, the one
    result-set class of sessions, snapshots and both collection
    engines) when that callable returns true between rows — the
    serving layer's deadline and disconnect cancellation path.  The
    stream is closed before the error propagates: a session's
    iteration pin is released, a fan-out's pending shard tasks are
    cancelled.
    """


class UpdateError(ReproError):
    """Invalid update transaction or application failure."""


class XMLFormatError(ReproError):
    """A serialized document or transaction does not follow the expected dialect."""


class WarehouseError(ReproError):
    """Base class for warehouse storage failures."""


class WarehouseLockedError(WarehouseError):
    """Another process holds the warehouse lock."""


class WarehouseCorruptError(WarehouseError):
    """The on-disk state failed an integrity check."""


class SessionClosedError(WarehouseError):
    """A session, snapshot or warehouse handle was used after close().

    Subclasses :class:`WarehouseError` so code that treated the old
    ``WarehouseError("warehouse handle is closed")`` as a warehouse
    failure keeps catching it.
    """


class ShardUnavailableError(WarehouseError):
    """A process-backed shard died (or is respawning) mid-request.

    The shard's acknowledged commits are durable — the supervisor
    respawns the worker and WAL replay restores them — so the request
    that observed the dead pipe is safe to retry once the shard is
    re-admitted.  :attr:`retryable` marks that contract for clients and
    the HTTP error body.
    """

    retryable = True
