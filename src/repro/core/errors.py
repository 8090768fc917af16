"""Exception hierarchy for the ``repro`` similarity-query library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class DimensionMismatchError(ReproError):
    """Two vectors, points, or rectangles do not live in the same space."""


class InvalidObjectError(ReproError, ValueError):
    """A data object was built from values it cannot hold: NaN or infinite
    observations, no observations at all, or the wrong shape.

    Raised by the object's constructor, so a bad row or query parameter is
    refused before any relation, index, store or log sees it.  Also a
    :class:`ValueError`, the built-in error for bad values.
    """


class UnsafeTransformationError(ReproError):
    """A transformation violates the safety condition required by an index.

    A transformation is *safe* with respect to a feature space when it maps
    every rectangle to a rectangle, interior points to interior points and
    exterior points to exterior points (Definition 1 of the companion text).
    Index traversal under an unsafe transformation could silently drop
    answers, so the library refuses to do it.
    """


class CostExceededError(ReproError):
    """A transformation sequence exceeded the caller-supplied cost bound."""


class PatternError(ReproError):
    """A pattern expression is malformed or cannot be evaluated."""


class QuerySyntaxError(ReproError):
    """The textual query could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class QueryBuildError(QuerySyntaxError):
    """A fluent-builder chain describes a malformed or incomplete query.

    Subclasses :class:`QuerySyntaxError` because both front ends (text and
    builder) fail for the same reason — the query is not well formed — and
    callers should be able to catch either with one clause.
    """


class QueryPlanningError(ReproError):
    """No executable plan could be produced for a logical query."""


class CatalogError(ReproError):
    """A relation or index referenced by name does not exist (or already does)."""


class IndexError_(ReproError):
    """An index structure was used incorrectly (bad arity, unknown entry...).

    Named with a trailing underscore to avoid shadowing the built-in
    ``IndexError``.
    """


class SessionClosedError(ReproError):
    """A :class:`~repro.core.session.Session` was used after ``close()``.

    Raised both on use-after-close (queries, catalog access, checkpoints)
    and on a second ``close()`` — a double close almost always means two
    owners believe they hold the session, which is a bug worth surfacing
    loudly rather than absorbing."""


class QueryCancelledError(ReproError):
    """A query was cooperatively cancelled mid-execution.

    Execution kernels poll their :class:`~repro.core.cancel.CancellationToken`
    at fan-out boundaries (per partition span, per join anchor, per provider
    candidate); when the token trips, the in-flight work raises this, pool
    slots drain, and nothing reaches the answer cache."""


class DeadlineExceededError(QueryCancelledError):
    """A query ran past its deadline (the timed flavour of cancellation).

    Subclasses :class:`QueryCancelledError` so ``except QueryCancelledError``
    catches both explicit cancellation and deadline expiry."""


class ServerError(ReproError):
    """A query-server request failed (the base of the wire-level errors).

    Carries the protocol error ``code`` the server responded with (or the
    client-side condition), so callers can branch without string matching."""

    def __init__(self, message: str, *, code: str = "INTERNAL") -> None:
        super().__init__(message)
        self.code = code


class ProtocolError(ServerError):
    """A wire frame was malformed: bad length, CRC mismatch, invalid JSON.

    Either transport end raises this when the peer's frame does not verify
    — which is how injected torn/corrupt frames surface."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="PROTOCOL_ERROR")


class RetryLaterError(ServerError):
    """The server refused admission (queue full) — safe to retry.

    Nothing executed, so a retry is always idempotent; the client's backoff
    loop handles these transparently up to its retry budget."""

    def __init__(self, message: str, *, retry_after_ms: float = 50.0) -> None:
        super().__init__(message, code="RETRY_LATER")
        self.retry_after_ms = retry_after_ms


class ConnectionLostError(ServerError):
    """The connection died with a non-idempotent request in flight.

    The outcome is *ambiguous* — the server may or may not have committed
    the write before the connection broke — so the client never retries
    automatically; the caller must reconcile (re-read, or rely on
    idempotent application-level keys)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="CONNECTION_LOST")


class RetryExhaustedError(ServerError):
    """The client's retry budget ran out without a successful response."""

    def __init__(self, message: str, *, attempts: int = 0,
                 last_error: Exception | None = None) -> None:
        super().__init__(message, code="RETRY_EXHAUSTED")
        self.attempts = attempts
        self.last_error = last_error


class StorageError(ReproError):
    """The simulated storage layer was asked to do something impossible."""


class TransformationError(ReproError):
    """A transformation could not be constructed or applied."""
