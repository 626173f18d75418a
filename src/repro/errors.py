"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can use a single ``except`` clause at API boundaries while still
being able to discriminate failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Structural problem with a graph (bad vertex id, bad weight, ...)."""


class VertexError(GraphError):
    """A vertex id is out of range or otherwise invalid."""


class EdgeError(GraphError):
    """An edge is invalid: self-loop where forbidden, missing, duplicate."""


class WeightError(GraphError):
    """An edge weight is not a positive finite number."""


class IndexStateError(ReproError):
    """An HCL index operation was applied in an invalid state.

    Examples: upgrading a vertex that is already a landmark, downgrading a
    vertex that is not a landmark, querying an index over the wrong graph.
    """


class LandmarkError(IndexStateError):
    """A landmark argument is invalid for the requested operation."""


class CoverPropertyError(ReproError):
    """An index failed the highway-cover property validation."""


class DatasetError(ReproError):
    """A workload/dataset specification could not be realized."""


class ParseError(ReproError):
    """A graph file could not be parsed."""


class GraphFormatError(ParseError):
    """A graph input file is malformed at a specific line.

    Carries the 1-based ``line`` number (and the offending ``text`` when
    available) so operators can fix the input instead of spelunking a
    raw ``ValueError`` out of ``int()``/``float()``.
    """

    def __init__(self, message: str, line: int | None = None, text: str | None = None):
        super().__init__(message)
        self.line = line
        self.text = text


class TransactionError(ReproError):
    """A transactional index mutation failed and was rolled back.

    Raised after the undo journal has restored the index to its
    pre-operation state; the original exception is chained as
    ``__cause__``.
    """


class CheckpointError(ParseError):
    """A checkpoint file is corrupt, truncated, or otherwise unreadable.

    Subclasses :class:`ParseError` so pre-existing ``except ParseError``
    handlers around index loading keep working.
    """


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent index.

    Examples: a committed WAL record does not apply to the checkpointed
    index (add of an existing landmark), or the WAL disagrees with the
    checkpoint's recorded sequence number.
    """


class WALError(ReproError):
    """A write-ahead log could not be opened or appended to."""


class RequestError(ReproError):
    """A service request carries invalid parameters (bad worker count, ...)."""


class DeadlineExceeded(ReproError):
    """A budgeted operation ran out of wall clock or step budget.

    Queries only raise this in ``strict`` mode — by default they return
    the anytime landmark upper bound as a
    :class:`~repro.budget.DegradedResult` instead.  Budgeted mutations
    always raise it (there is no partial mutation to return); the
    transaction machinery has already rolled the index back by the time
    the exception reaches the caller, so the operation is safely
    retriable with a larger budget.
    """


class Overloaded(ReproError):
    """The service shed this request at admission time.

    Raised before any work happens when the bounded in-flight budget is
    full.  ``retriable`` is always ``True``: nothing about the request
    was wrong, the deployment was momentarily saturated.
    """

    retriable = True


class CircuitOpenError(ReproError):
    """A mutation was rejected because the service's circuit breaker is open.

    After ``K`` consecutive infrastructure failures
    (:class:`TransactionError` / :class:`WALError`) the service stops
    attempting mutations and serves queries from the last-good index.
    ``retriable`` is ``True``; ``retry_after`` (seconds) hints when the
    breaker will next admit a half-open probe.
    """

    retriable = True

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ShardUnavailable(ReproError):
    """No replica of a shard could serve an RPC within the deadline.

    Raised by the scatter-gather coordinator after retries and replica
    failover are exhausted for one shard.  ``retriable`` is ``True``:
    the coordinator restarts dead workers from the pinned epoch, so a
    later attempt may find the shard healthy again.  Batch queries
    normally absorb this into per-pair
    :class:`~repro.budget.DegradedResult` answers instead of raising.
    """

    retriable = True

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


class PlanIntegrityError(ReproError):
    """A shared-memory plan segment failed its CRC32 integrity check.

    The segment's per-array checksums (written at creation, mirroring the
    WAL record format) did not match its contents at attach or re-verify
    time — a flipped byte anywhere in the label arrays would otherwise
    become a silently wrong distance.  The segment is quarantined (never
    attached again by this process) and callers fall back to the pickle
    transport; the owner republishes a fresh segment from the canonical
    arrays, which live in ordinary heap memory and are unaffected.
    ``segment`` names the offending shared-memory segment when known.
    """

    retriable = True

    def __init__(self, message: str, segment: str | None = None):
        super().__init__(message)
        self.segment = segment

    def __reduce__(self):
        # Keep ``segment`` across process boundaries: a shard worker's
        # attach failure must tell the parent *which* segment to
        # quarantine, and default exception pickling replays only
        # ``args``.
        return (type(self), (self.args[0], self.segment))


class AuditError(ReproError):
    """The background auditor could not repair a corrupted label row.

    The offending landmark stays quarantined (reported via
    ``HCLService.health()``) and the repair is retried on the next tick.
    """


class ServiceError(ReproError):
    """A service request failed with an unexpected (non-library) error.

    Wraps exceptions that are not :class:`ReproError` so the service
    boundary only ever raises the library hierarchy; the original
    exception is chained as ``__cause__``.
    """
