"""A small operational layer: typed requests, audit log, durable snapshots.

:class:`HCLService` wraps a :class:`~repro.core.dynhcl.DynamicHCL` the way
a deployment would embed it behind an API: operations arrive as typed
request objects, every outcome — success or failure, library error or
foreign exception — is audited, query answers flow through the
version-invalidated cache, and the whole index can be checkpointed to /
restored from disk (binary format) without rebuilding.

Crash safety spans three mechanisms:

* **Transactional mutations** — landmark requests are all-or-nothing; an
  exception mid-``UPGRADE-LMK``/``DOWNGRADE-LMK`` rolls the index back to
  its pre-request state (see :mod:`repro.core.transaction`).
  :meth:`HCLService.submit_batch` extends this to whole batches with
  ``on_error="rollback"``.
* **Durability** — an optional :class:`~repro.core.wal.WriteAheadLog`
  records every committed mutation; :meth:`HCLService.checkpoint` writes
  atomic, checksummed snapshots that embed the WAL position they include.
* **Recovery** — :meth:`HCLService.recover` rebuilds a service from
  ``checkpoint + WAL suffix``, tolerates a torn WAL tail, probes the
  cover property on a sample, and returns a typed
  :class:`RecoveryReport`.

This layer adds no algorithmics — it exists so the library is adoptable as
a component, and it doubles as an end-to-end exercise of the public API in
the test suite.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Union

from .breaker import CircuitBreaker
from .budget import Budget, DegradedResult
from .core.auditor import IndexAuditor, PlanAuditor
from .core.cache import CachedQueryEngine
from .core.dynhcl import DynamicHCL
from .core.invariants import find_cover_violations, sample_vertex_pairs
from .core.planvec import default_backend
from .core.shm import COUNTS as SHM_COUNTS
from .core.shm import quarantined_segments, shm_available
from .core.serialization import (
    load_checkpoint,
    load_index_binary,
    save_index_binary,
)
from .core.transaction import IndexTransaction
from .core.wal import WalScan, WriteAheadLog, scan_wal
from .errors import (
    Overloaded,
    RecoveryError,
    ReproError,
    RequestError,
    ServiceError,
    TransactionError,
    VertexError,
    WALError,
)
from .graphs.graph import Graph
from .obs import (
    OBS,
    SIZE_BOUNDS,
    MetricsRegistry,
    merge_snapshots,
    render_json,
    render_prometheus,
)

__all__ = [
    "HCLService",
    "DistanceRequest",
    "ConstrainedDistanceRequest",
    "BatchQueryRequest",
    "AddLandmarkRequest",
    "RemoveLandmarkRequest",
    "BatchReconfigureRequest",
    "AuditRecord",
    "RecoveryReport",
]


@dataclass(frozen=True)
class DistanceRequest:
    """Exact distance query."""

    s: int
    t: int


@dataclass(frozen=True)
class ConstrainedDistanceRequest:
    """Landmark-constrained distance query (``QUERY``)."""

    s: int
    t: int


@dataclass(frozen=True)
class BatchQueryRequest:
    """Bulk query: many ``(s, t)`` pairs served as one batch.

    ``exact=False`` answers the landmark-constrained ``QUERY`` per pair,
    ``exact=True`` the exact distance — matching what a sequence of
    :class:`ConstrainedDistanceRequest` / :class:`DistanceRequest`
    submissions would return, pair for pair.  Every endpoint must be an
    ``int`` vertex id in range, or the request is rejected with
    :class:`~repro.errors.VertexError` naming the pair's position.
    """

    pairs: tuple[tuple[int, int], ...]
    exact: bool = False


@dataclass(frozen=True)
class AddLandmarkRequest:
    """Promote a vertex (``UPGRADE-LMK``)."""

    vertex: int


@dataclass(frozen=True)
class RemoveLandmarkRequest:
    """Demote a landmark (``DOWNGRADE-LMK``)."""

    vertex: int


@dataclass(frozen=True)
class BatchReconfigureRequest:
    """Apply landmark swaps and edge-weight updates as one merged batch.

    Executed by :meth:`repro.core.dynhcl.DynamicHCL.apply_batch`: one
    repair sweep over the merged affected set, one index transaction
    (whole-batch rollback), one WAL ``BATCH`` record, one epoch publish.
    ``edge_updates`` holds ``(u, v, new_weight)`` triples for existing
    edges; ``rebuild_factor`` is the rebuild-cutoff cost model knob.
    """

    adds: tuple[int, ...] = ()
    removes: tuple[int, ...] = ()
    edge_updates: tuple[tuple[int, int, float], ...] = ()
    rebuild_factor: float = 0.75


Request = Union[
    DistanceRequest,
    ConstrainedDistanceRequest,
    BatchQueryRequest,
    AddLandmarkRequest,
    RemoveLandmarkRequest,
    BatchReconfigureRequest,
]


@dataclass(frozen=True)
class AuditRecord:
    """One processed request with its outcome and wall-clock cost."""

    request: Request
    result: object
    seconds: float
    ok: bool
    error: str | None = None


@dataclass
class ServiceStats:
    """Aggregate counters of a service session."""

    queries: int = 0
    mutations: int = 0
    # Committed batch reconfigurations (each also adds its netted
    # operation count to ``mutations``).
    batches: int = 0
    failures: int = 0
    # Requests refused at admission time (in-flight budget full).
    shed: int = 0
    # Answers returned as flagged DegradedResult upper bounds (per pair).
    degraded: int = 0


@dataclass(frozen=True)
class RecoveryReport:
    """Typed health report of one :meth:`HCLService.recover` run.

    ``wal_records_seen`` counts the committed records found in the log
    (after any torn tail was discarded); ``wal_records_applied`` the
    subset past the checkpoint's ``wal_seq`` that replay re-executed.
    ``probe_ok`` reports the sampled cover-property probe; a ``False``
    value comes with the violation in ``probe_error``.
    """

    service: "HCLService"
    checkpoint_wal_seq: int
    wal_records_seen: int
    wal_records_applied: int
    wal_tail_truncated: bool
    probe_ok: bool
    probe_error: str | None
    landmarks: tuple[int, ...]


class HCLService:
    """Request-oriented facade over a dynamic HCL index.

    Parameters
    ----------
    dyn:
        The index to serve.
    cache_capacity:
        LRU capacity of the query cache.
    wal:
        Optional write-ahead log (a :class:`~repro.core.wal.WriteAheadLog`
        or a path to open one at) recording committed landmark mutations
        for crash recovery.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> g = Graph(4)
    >>> for u, v in [(0, 1), (1, 2), (2, 3)]:
    ...     g.add_edge(u, v, 1.0)
    >>> svc = HCLService.build(g, [1])
    >>> svc.submit(DistanceRequest(0, 3))
    3.0
    >>> _ = svc.submit(AddLandmarkRequest(3))
    >>> sorted(svc.landmarks)
    [1, 3]
    """

    def __init__(
        self,
        dyn: DynamicHCL,
        cache_capacity: int = 65536,
        wal: WriteAheadLog | str | Path | None = None,
        max_inflight: int | None = None,
        breaker: CircuitBreaker | None = None,
        auditor: IndexAuditor | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise RequestError(
                f"max_inflight must be >= 1 or None, got {max_inflight}"
            )
        self._dyn = dyn
        self._engine = CachedQueryEngine(dyn, capacity=cache_capacity)
        if isinstance(wal, (str, Path)):
            wal = WriteAheadLog(wal)
        self._wal = wal
        self._wal_buffer: list[tuple[str, object]] | None = None
        self.audit: list[AuditRecord] = []
        self.stats = ServiceStats()
        # Always-on service metrics (request latencies, batch sizes,
        # mutation affected sets).  Independent of the global repro.obs
        # tracer: a deployment gets operational numbers without paying for
        # library-internal tracing.
        self._registry = MetricsRegistry()
        # Admission control: requests beyond this many concurrently active
        # ones are shed with a retriable Overloaded instead of queueing.
        self._max_inflight = max_inflight
        self._inflight = 0
        # Fault isolation: K consecutive infrastructure failures on the
        # mutation path trip the breaker; queries keep serving the
        # last-good index while mutations are rejected as retriable.
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        # Background self-healing: tick from an ops loop (or call
        # audit_tick()); findings surface in health() and metrics().  A
        # caller-supplied auditor (custom sampling rates) is adopted: it
        # inherits the service's breaker and registry unless it brought
        # its own, so health() and metrics() stay complete either way.
        if auditor is None:
            auditor = IndexAuditor(
                dyn, breaker=self.breaker, registry=self._registry
            )
        else:
            if auditor._breaker is None:
                auditor._breaker = self.breaker
            if auditor._registry is None:
                auditor._registry = self._registry
        self.auditor = auditor
        # Lazily-built plan/shm cross-checker (see plan_audit_tick):
        # only deployments that tick it pay for it.
        self._plan_auditor = None

    @classmethod
    def build(
        cls,
        graph: Graph,
        landmarks,
        wal: WriteAheadLog | str | Path | None = None,
    ) -> "HCLService":
        """Build the underlying index and wrap it."""
        return cls(DynamicHCL.build(graph, landmarks), wal=wal)

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    @property
    def landmarks(self) -> set[int]:
        """Current landmark set."""
        return self._dyn.landmarks

    @property
    def cache_stats(self):
        """Hit/miss counters of the query cache.

        .. deprecated::
            Use :meth:`metrics` — cache counters are reported there as
            ``cache.hits`` / ``cache.misses`` / ``cache.invalidations``
            alongside every other service metric.  This accessor remains
            as an alias and returns the same live ``CacheStats`` object.
        """
        warnings.warn(
            "HCLService.cache_stats is deprecated; read cache.* from "
            "HCLService.metrics() instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self._engine.stats

    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log, if any."""
        return self._wal

    def enable_plan_epochs(self, recompile: str = "sync"):
        """Serve queries from MVCC plan epochs; returns the registry.

        Delegates to
        :meth:`repro.core.dynhcl.DynamicHCL.enable_plan_epochs`; epoch
        id, live-epoch count and recompile latency then surface in
        :meth:`health` (``plan.epochs``) and :meth:`metrics`
        (``plan.epoch.*``).
        """
        return self._dyn.enable_plan_epochs(recompile=recompile)

    def shard(
        self, nshards: int = 2, replication_factor: int = 1, **kwargs
    ):
        """Stand up a sharded, replicated fleet serving this index.

        Enables MVCC plan epochs (so committed mutations propagate to
        the fleet via versioned snapshot broadcasts with atomic cutover)
        and returns a :class:`repro.shard.ShardedService` attached to
        the epoch registry.  The caller owns the fleet's lifecycle
        (``close()``); keyword arguments pass through to
        :class:`~repro.shard.coordinator.ShardedService`.
        """
        from .shard import ShardedService

        registry = self.enable_plan_epochs()
        return ShardedService.from_registry(
            registry,
            nshards=nshards,
            replication_factor=replication_factor,
            **kwargs,
        )

    def _validate_vertex(self, v, what: str = "vertex") -> None:
        n = self._dyn.index.graph.n
        if not isinstance(v, int) or not 0 <= v < n:
            raise VertexError(f"{what} {v!r} out of range [0, {n})")

    def _record_mutation(self, kind: str, arg) -> None:
        """Log one committed mutation (buffered inside rollback batches).

        ``arg`` is the vertex for ``"add"``/``"remove"``, or the netted
        ``(adds, removes, edge_updates)`` triple for ``"batch"`` — which
        lands in the WAL as a single atomic ``BATCH`` record.
        """
        if self._wal_buffer is not None:
            self._wal_buffer.append((kind, arg))
        elif self._wal is not None:
            if kind == "batch":
                self._wal.append_batch(*arg)
            else:
                self._wal.append(kind, arg)

    def _execute(
        self,
        request: Request,
        budget: Budget | None = None,
        strict: bool = False,
    ):
        """Validate and run one request (no auditing here).

        With no ``budget`` the engine calls are exactly the unbudgeted
        ones — same positional signatures as before budgets existed — so
        the undegraded hot path (and anything monkeypatching the engine)
        is untouched.
        """
        unbudgeted = budget is None and not strict
        if isinstance(request, DistanceRequest):
            self._validate_vertex(request.s, "source")
            self._validate_vertex(request.t, "target")
            if unbudgeted:
                result = self._engine.distance(request.s, request.t)
            else:
                result = self._engine.distance(
                    request.s, request.t, budget=budget, strict=strict
                )
            self.stats.queries += 1
        elif isinstance(request, ConstrainedDistanceRequest):
            self._validate_vertex(request.s, "source")
            self._validate_vertex(request.t, "target")
            if unbudgeted:
                result = self._engine.query(request.s, request.t)
            else:
                result = self._engine.query(
                    request.s, request.t, budget=budget, strict=strict
                )
            self.stats.queries += 1
        elif isinstance(request, BatchQueryRequest):
            n = self._dyn.index.graph.n
            for i, (s, t) in enumerate(request.pairs):
                if not (
                    isinstance(s, int)
                    and isinstance(t, int)
                    and 0 <= s < n
                    and 0 <= t < n
                ):
                    raise VertexError(
                        f"pair {i} = ({s!r}, {t!r}) is not a pair of vertex "
                        f"ids in [0, {n})"
                    )
            if unbudgeted:
                result = self._engine.batch(request.pairs, exact=request.exact)
            else:
                result = self._engine.batch(
                    request.pairs,
                    exact=request.exact,
                    budget=budget,
                    strict=strict,
                )
            self.stats.queries += len(request.pairs)
        elif isinstance(request, AddLandmarkRequest):
            self._validate_vertex(request.vertex)
            if budget is None:
                result = self._engine.add_landmark(request.vertex)
            else:
                result = self._engine.add_landmark(
                    request.vertex, budget=budget
                )
            self.stats.mutations += 1
            self._record_mutation("add", request.vertex)
        elif isinstance(request, RemoveLandmarkRequest):
            self._validate_vertex(request.vertex)
            if budget is None:
                result = self._engine.remove_landmark(request.vertex)
            else:
                result = self._engine.remove_landmark(
                    request.vertex, budget=budget
                )
            self.stats.mutations += 1
            self._record_mutation("remove", request.vertex)
        elif isinstance(request, BatchReconfigureRequest):
            for v in request.adds:
                self._validate_vertex(v, "batch add")
            for v in request.removes:
                self._validate_vertex(v, "batch remove")
            if budget is None:
                result = self._engine.apply_batch(
                    request.adds,
                    request.removes,
                    request.edge_updates,
                    rebuild_factor=request.rebuild_factor,
                )
            else:
                result = self._engine.apply_batch(
                    request.adds,
                    request.removes,
                    request.edge_updates,
                    rebuild_factor=request.rebuild_factor,
                    budget=budget,
                )
            self.stats.batches += 1
            self.stats.mutations += result.ops
            if result.ops:
                # One WAL record for the whole batch, carrying the netted
                # operations (replay re-nets to the same lists).
                self._record_mutation(
                    "batch",
                    (result.adds, result.removes, result.edge_updates),
                )
        else:
            raise RequestError(f"unknown request type {type(request).__name__}")
        return result

    def _shed(self, request: Request) -> None:
        """Refuse one request at admission time (no work performed)."""
        self.stats.shed += 1
        self._registry.counter("service.shed").inc()
        message = (
            f"{type(request).__name__} shed: {self._inflight} requests "
            f"in flight >= max_inflight={self._max_inflight}"
        )
        self.audit.append(
            AuditRecord(request, None, 0.0, False, f"Overloaded: {message}")
        )
        raise Overloaded(message)

    def _count_degraded(self, result) -> None:
        """Fold flagged anytime answers into stats (per degraded pair)."""
        if isinstance(result, DegradedResult):
            degraded = 1
        elif isinstance(result, list):
            degraded = sum(
                1 for value in result if isinstance(value, DegradedResult)
            )
        else:
            return
        if degraded:
            self.stats.degraded += degraded
            self._registry.counter("service.degraded").inc(degraded)

    def submit(
        self,
        request: Request,
        budget: Budget | None = None,
        strict: bool = False,
    ):
        """Process one request; raises on failure after auditing it.

        *Every* outcome is audited and counted, including exceptions that
        are not part of the library hierarchy; those are re-raised wrapped
        in :class:`~repro.errors.ServiceError` (with the original as
        ``__cause__``) so callers only ever see ``ReproError`` subclasses.
        Mutations are transactional: a failed one has already been rolled
        back by the time the exception reaches the caller.

        Operating under load:

        * ``budget`` bounds the request by wall clock and/or settled
          vertices; an expired query returns its anytime upper bound as a
          flagged :class:`~repro.budget.DegradedResult` (counted in
          ``service.degraded``), or raises
          :class:`~repro.errors.DeadlineExceeded` with ``strict=True``.
          An expired *mutation* always raises after rolling back.
        * With ``max_inflight`` configured, requests beyond the bound are
          shed up front with a retriable :class:`~repro.errors.Overloaded`.
        * Mutations pass through the circuit breaker: after ``threshold``
          consecutive :class:`~repro.errors.TransactionError` /
          :class:`~repro.errors.WALError` failures they are rejected with
          :class:`~repro.errors.CircuitOpenError` until a backed-off
          half-open probe succeeds.  Queries never touch the breaker.
        """
        if (
            self._max_inflight is not None
            and self._inflight >= self._max_inflight
        ):
            self._shed(request)
        is_mutation = isinstance(
            request,
            (AddLandmarkRequest, RemoveLandmarkRequest, BatchReconfigureRequest),
        )
        if is_mutation and not self.breaker.allow():
            self._registry.counter("service.breaker_rejections").inc()
            try:
                self.breaker.guard(type(request).__name__)
            except ReproError as exc:
                self.audit.append(
                    AuditRecord(
                        request, None, 0.0, False,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                raise
        start = time.perf_counter()
        self._inflight += 1
        try:
            result = self._execute(request, budget, strict)
        except Exception as exc:
            elapsed = time.perf_counter() - start
            self.stats.failures += 1
            if is_mutation:
                if isinstance(exc, (TransactionError, WALError)):
                    self.breaker.record_failure()
                elif self.breaker.state == "half_open":
                    # The probe failed for a non-infrastructure reason
                    # (validation, budget): the write path itself worked,
                    # so the probe closes the breaker rather than wedging
                    # it half-open.
                    self.breaker.record_success()
            self._record_request(request, None, elapsed, ok=False)
            self.audit.append(
                AuditRecord(
                    request,
                    None,
                    elapsed,
                    False,
                    f"{type(exc).__name__}: {exc}",
                )
            )
            if isinstance(exc, ReproError):
                raise
            raise ServiceError(
                f"{type(request).__name__} failed unexpectedly: {exc}"
            ) from exc
        finally:
            self._inflight -= 1
        if is_mutation:
            self.breaker.record_success()
        elapsed = time.perf_counter() - start
        self._count_degraded(result)
        self._record_request(request, result, elapsed, ok=True)
        self.audit.append(AuditRecord(request, result, elapsed, True))
        return result

    def _record_request(
        self, request: Request, result, elapsed: float, ok: bool
    ) -> None:
        """Fold one processed request into the service registry."""
        reg = self._registry
        reg.counter("service.requests").inc()
        if not ok:
            reg.counter("service.request_failures").inc()
        reg.histogram("service.request.seconds").observe(elapsed)
        kind = type(request).__name__
        reg.histogram(f"service.request.{kind}.seconds").observe(elapsed)
        if isinstance(request, BatchQueryRequest):
            reg.histogram("service.batch_size", SIZE_BOUNDS).observe(
                len(request.pairs)
            )
        elif ok and isinstance(request, BatchReconfigureRequest):
            # The merged affected set spans upgrades, the shared downgrade
            # sweep and the edge re-passes.
            reg.histogram(
                "service.mutation.affected_set_size", SIZE_BOUNDS
            ).observe(
                getattr(result, "settled", 0) + getattr(result, "swept", 0)
            )
            reg.histogram("service.batch_ops", SIZE_BOUNDS).observe(
                getattr(result, "ops", 0)
            )
        elif ok and isinstance(
            request, (AddLandmarkRequest, RemoveLandmarkRequest)
        ):
            # UpgradeStats.settled / DowngradeStats.swept: the size of the
            # vertex set the mutation touched (paper Table 2's work measure).
            affected = getattr(result, "settled", None)
            if affected is None:
                affected = getattr(result, "swept", 0)
            reg.histogram(
                "service.mutation.affected_set_size", SIZE_BOUNDS
            ).observe(affected)

    def submit_batch(
        self,
        requests,
        on_error: str = "stop",
        budget: Budget | None = None,
        strict: bool = False,
    ) -> list[AuditRecord]:
        """Process requests in order with explicit failure semantics.

        A ``budget`` is shared by the whole batch (it is sticky: once the
        first request exhausts it, every later query degrades immediately
        and every later mutation is cancelled up front).

        ``on_error`` selects what a failing request does to the batch:

        * ``"stop"`` (default) — stop at the first failure and re-raise it;
          earlier requests keep their effects.
        * ``"rollback"`` — all-or-nothing: the whole batch runs inside one
          index transaction, so a failure anywhere undoes *every* mutation
          the batch already committed (update log and caches included),
          then re-raises.  WAL writes are buffered and only flushed when
          the batch commits, so the log never records undone mutations.
        * ``"continue"`` — audit the failure and keep going; inspect the
          returned records (``ok`` / ``error``) for the per-request
          outcomes.

        Returns the audit records of the processed requests.
        """
        if on_error not in ("stop", "rollback", "continue"):
            raise RequestError(
                f'on_error must be "stop", "rollback" or "continue", '
                f"got {on_error!r}"
            )
        before = len(self.audit)
        if on_error == "stop":
            for request in requests:
                self.submit(request, budget=budget, strict=strict)
        elif on_error == "continue":
            for request in requests:
                try:
                    self.submit(request, budget=budget, strict=strict)
                except ReproError:
                    pass  # audited by submit; batch keeps going
        else:  # rollback
            requests = list(requests)
            log_before = self._dyn.log.count
            mutations_before = self.stats.mutations
            outer_buffer = self._wal_buffer
            self._wal_buffer = []
            try:
                with IndexTransaction(self._dyn.index):
                    for request in requests:
                        self.submit(request, budget=budget, strict=strict)
            except Exception:
                # The transaction already restored the index; undo the
                # bookkeeping of mutations that committed inside the batch.
                self._wal_buffer = outer_buffer
                self._dyn.truncate_log(log_before)
                self.stats.mutations = mutations_before
                raise
            buffered = self._wal_buffer
            self._wal_buffer = outer_buffer
            for kind, arg in buffered:
                self._record_mutation(kind, arg)
        return self.audit[before:]

    def submit_batch_reconfigure(
        self,
        adds=(),
        removes=(),
        edge_updates=(),
        rebuild_factor: float = 0.75,
        budget: Budget | None = None,
    ):
        """Apply one merged reconfiguration batch through the service.

        Equivalent to submitting a :class:`BatchReconfigureRequest`: the
        batch passes admission control and the circuit breaker like any
        mutation, runs as **one** repair sweep inside **one** index
        transaction, and commits **one** WAL ``BATCH`` record and **one**
        epoch publish — failure anywhere (including ``budget`` expiry)
        rolls the whole batch back before the exception reaches the
        caller.  Returns the :class:`~repro.core.batch.BatchResult` with
        the merged work counters.
        """
        return self.submit(
            BatchReconfigureRequest(
                adds=tuple(adds),
                removes=tuple(removes),
                edge_updates=tuple(
                    (e.u, e.v, e.weight)
                    if hasattr(e, "weight")
                    else (e[0], e[1], e[2])
                    for e in edge_updates
                ),
                rebuild_factor=rebuild_factor,
            ),
            budget=budget,
        )

    def query_batch(
        self,
        pairs,
        exact: bool = False,
        budget: Budget | None = None,
        strict: bool = False,
    ) -> list[float]:
        """Serve many queries as one audited batch.

        Equivalent to submitting one :class:`ConstrainedDistanceRequest`
        (or :class:`DistanceRequest` when ``exact``) per pair — same
        answers, same cache — but the distinct pairs are solved together
        from one compiled plan (see
        :func:`repro.core.batchquery.query_batch`).  Returns one value per
        pair in input order.

        A ``budget`` spans the whole batch and is sticky: once it
        expires, the current and all remaining exact pairs come back as
        flagged :class:`~repro.budget.DegradedResult` upper bounds, or
        ``strict=True`` aborts the batch with
        :class:`~repro.errors.DeadlineExceeded`.
        """
        return self.submit(
            BatchQueryRequest(tuple(pairs), exact=exact),
            budget=budget,
            strict=strict,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """One merged snapshot of everything observable about this service.

        Combines, in order:

        * the service's always-on registry (request latencies per type,
          batch sizes, mutation affected-set sizes);
        * the global :data:`repro.obs.OBS` registry, when tracing is
          enabled on a registry other than the service's own (search
          counters, WAL timings, algorithm work counters);
        * authoritative cache counters from the query engine
          (``cache.hits`` / ``cache.misses`` / ``cache.invalidations``
          plus the ``cache.hit_rate`` gauge) — these *overwrite* any
          merged ``cache.*`` series so the same event is never counted
          twice;
        * the session totals (``service.queries`` / ``service.mutations``
          / ``service.failures``).

        The result is a plain dict (see
        :meth:`repro.obs.MetricsRegistry.snapshot`) ready for
        :func:`repro.obs.render_prometheus` / :func:`repro.obs.render_json`
        or the :meth:`metrics_prometheus` / :meth:`metrics_json`
        conveniences.
        """
        snap = self._registry.snapshot()
        if (
            OBS.enabled
            and OBS.registry is not None
            and OBS.registry is not self._registry
        ):
            snap = merge_snapshots(snap, OBS.registry.snapshot())
        cs = self._engine.stats
        counters = snap["counters"]
        counters["cache.hits"] = cs.hits
        counters["cache.misses"] = cs.misses
        counters["cache.invalidations"] = cs.invalidations
        counters["service.queries"] = self.stats.queries
        counters["service.mutations"] = self.stats.mutations
        counters["service.failures"] = self.stats.failures
        counters["service.shed"] = self.stats.shed
        counters["service.degraded"] = self.stats.degraded
        snap["gauges"]["cache.hit_rate"] = cs.hit_rate
        # Breaker state as a gauge (0 closed, 1 half-open, 2 open) so a
        # scraper can alert on it without parsing strings.
        snap["gauges"]["service.breaker_state"] = {
            "closed": 0,
            "half_open": 1,
            "open": 2,
        }[self.breaker.state]
        snap["gauges"]["service.inflight"] = self._inflight
        snap["gauges"]["audit.quarantined"] = len(self.auditor.quarantined)
        registry = self._dyn.index._plan_registry
        if registry is not None:
            epochs = registry.summary()
            counters["plan.epoch.publishes"] = epochs["publishes"]
            counters["plan.epoch.incremental"] = epochs["incremental"]
            counters["plan.epoch.cancelled"] = epochs["cancelled"]
            counters["plan.epoch.g_patched"] = epochs["g_patched"]
            counters["plan.epoch.g_full"] = epochs["g_full"]
            snap["gauges"]["plan.epoch.id"] = epochs["epoch"]
            snap["gauges"]["plan.epoch.live"] = epochs["live"]
            snap["gauges"]["plan.epoch.last_recompile_seconds"] = epochs[
                "last_recompile_seconds"
            ]
        snap["counters"] = dict(sorted(counters.items()))
        snap["gauges"] = dict(sorted(snap["gauges"].items()))
        return snap

    # ------------------------------------------------------------------
    # Health & self-healing
    # ------------------------------------------------------------------
    def audit_tick(self):
        """Run one increment of the background index auditor.

        A deployment calls this from its maintenance loop (a thread, a
        cron tick, an idle callback); each call samples fresh vertex
        pairs, checks a rotating window of landmark rows against
        ground-truth searches, and repairs what it can.  Returns the
        :class:`~repro.core.auditor.AuditTickReport`; cumulative findings
        surface in :meth:`health` and :meth:`metrics`.
        """
        return self.auditor.tick()

    @property
    def plan_auditor(self) -> PlanAuditor:
        """The plan/shm cross-checker (built on first use)."""
        if self._plan_auditor is None:
            self._plan_auditor = PlanAuditor(
                self._dyn, registry=self._registry
            )
        return self._plan_auditor

    def plan_audit_tick(self):
        """Run one increment of the plan-integrity auditor.

        The derived-state counterpart of :meth:`audit_tick`: samples
        compiled-plan rows (and ``δ_H`` cells) and compares them bitwise
        against the authoritative dict labeling, re-verifies the plan's
        shared-memory segment checksums, and republishes a fresh plan on
        any mismatch.  Returns the
        :class:`~repro.core.auditor.PlanAuditReport`; cumulative state
        surfaces in :meth:`health` under ``plan.integrity``.  Also the
        natural ``integrity_check`` callable for a
        :class:`~repro.shard.supervisor.FleetSupervisor`::

            sup = FleetSupervisor(
                fleet, integrity_check=lambda: svc.plan_audit_tick().clean
            )
        """
        return self.plan_auditor.tick()

    def health(self) -> dict:
        """One structured verdict on whether this service is fit to serve.

        Combines the circuit breaker (write-path health), WAL liveness,
        the auditor's cumulative findings (read-path integrity), and the
        load-shedding counters.  ``status`` is the roll-up:

        * ``"ok"`` — breaker closed, nothing quarantined;
        * ``"degraded"`` — breaker half-open (probing after failures) or
          label rows are quarantined awaiting repair: answers are served
          but something needs attention;
        * ``"failed"`` — breaker open: mutations are being rejected and
          queries run on the last-good index.
        """
        breaker_state = self.breaker.state
        auditor = self.auditor.summary()
        index = self._dyn.index
        registry = index._plan_registry
        if breaker_state == "open":
            status = "failed"
        elif breaker_state == "half_open" or auditor["quarantined"]:
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "breaker": {
                "state": breaker_state,
                "consecutive_failures": self.breaker.consecutive_failures,
                "retry_after": self.breaker.retry_after(),
            },
            "wal": {
                "attached": self._wal is not None,
                "last_seq": self._wal.last_seq if self._wal else None,
            },
            "auditor": auditor,
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "shed": self.stats.shed,
            "degraded_answers": self.stats.degraded,
            "batches": self.stats.batches,
            "landmarks": len(self._dyn.landmarks),
            "version": self._dyn.version,
            "plan": {
                "mode": index.plan_mode,
                "compiled": index.plan() is not None
                or (registry is not None and registry.head is not None),
                "backend": default_backend(),
                "shm": shm_available(),
                "epochs": (
                    registry.summary() if registry is not None else None
                ),
                "integrity": {
                    "quarantined_segments": quarantined_segments(),
                    "verified": SHM_COUNTS["verified"],
                    "failures": SHM_COUNTS["integrity_failures"],
                    "republished": SHM_COUNTS["republished"],
                    "auditor": (
                        self._plan_auditor.summary()
                        if self._plan_auditor is not None
                        else None
                    ),
                },
            },
        }

    def metrics_prometheus(self) -> str:
        """:meth:`metrics` rendered in the Prometheus text format."""
        return render_prometheus(self.metrics())

    def metrics_json(self) -> str:
        """:meth:`metrics` rendered as stable JSON."""
        return render_json(self.metrics())

    # ------------------------------------------------------------------
    # Checkpointing & recovery
    # ------------------------------------------------------------------
    def checkpoint(
        self, target: str | Path | BinaryIO, reset_wal: bool = False
    ) -> None:
        """Persist the current index (atomic, checksummed binary format).

        The checkpoint header records the WAL position it includes, so a
        later :meth:`recover` replays exactly the mutations committed
        after this call.  ``reset_wal`` drops the now-redundant WAL
        records once the checkpoint is safely on disk (sequence numbers
        keep rising, so older checkpoints remain usable only up to their
        own position).
        """
        wal_seq = self._wal.last_seq if self._wal is not None else 0
        save_index_binary(self._dyn.index, target, wal_seq=wal_seq)
        if reset_wal and self._wal is not None:
            self._wal.reset()

    @classmethod
    def restore(
        cls,
        graph: Graph,
        source: str | Path | BinaryIO,
        wal: WriteAheadLog | str | Path | None = None,
    ) -> "HCLService":
        """Recreate a service from a checkpoint, skipping BUILDHCL.

        Plain restore: the checkpoint is loaded as-is and no WAL replay
        happens — use :meth:`recover` to also re-apply mutations
        committed after the checkpoint.
        """
        index = load_index_binary(graph, source)
        return cls(DynamicHCL(index), wal=wal)

    @classmethod
    def recover(
        cls,
        graph: Graph,
        checkpoint: str | Path | BinaryIO,
        wal: WriteAheadLog | str | Path | None = None,
        probe_pairs: int = 40,
        probe_seed: int = 0,
    ) -> RecoveryReport:
        """Reconstruct a service from ``checkpoint + WAL`` after a crash.

        Loads the checkpoint (corruption raises
        :class:`~repro.errors.CheckpointError`, a wrong graph
        :class:`~repro.errors.VertexError`), then replays the committed
        WAL suffix — records with sequence numbers past the checkpoint's
        ``wal_seq``.  A truncated or corrupt WAL *tail* is tolerated:
        replay stops at the first bad record, exactly the
        committed-prefix semantics fsync'd appends guarantee.  A committed
        record that fails to re-apply means checkpoint and WAL disagree
        and raises :class:`~repro.errors.RecoveryError`.

        After replay a sampled cover-property probe grades the recovered
        index; its verdict lands in the returned :class:`RecoveryReport`
        together with replay statistics.  The probe draws its pairs and
        grades them through the same
        :func:`repro.core.invariants.sample_vertex_pairs` /
        :func:`repro.core.invariants.find_cover_violations` path the
        background :class:`~repro.core.auditor.IndexAuditor` ticks over,
        so ``RecoveryReport.probe_ok`` and a subsequent
        :meth:`health` report cannot disagree about what a violation is.
        When ``wal`` is given as a path, the recovered service continues
        logging to it (the torn tail, if any, is repaired on open).
        """
        index, ckpt_seq = load_checkpoint(graph, checkpoint)
        dyn = DynamicHCL(index)

        if wal is None:
            scan = WalScan((), truncated=False, good_bytes=0)
        elif isinstance(wal, WriteAheadLog):
            scan = wal.scan()
        else:
            scan = scan_wal(wal)

        applied = 0
        for record in scan.records:
            if record.seq <= ckpt_seq:
                continue
            try:
                if record.kind == "add":
                    dyn.add_landmark(record.vertex)
                elif record.kind == "remove":
                    dyn.remove_landmark(record.vertex)
                else:  # "batch": replayed atomically, one merged repair
                    dyn.apply_batch(
                        adds=record.batch.adds,
                        removes=record.batch.removes,
                        edge_updates=record.batch.edge_updates,
                    )
            except Exception as exc:
                raise RecoveryError(
                    f"WAL record seq={record.seq} "
                    f"({record.kind} {record.vertex}) does not apply to "
                    f"the checkpoint: {exc}"
                ) from exc
            applied += 1

        probe = sample_vertex_pairs(index, sample=probe_pairs, seed=probe_seed)
        violations = find_cover_violations(index, pairs=probe, max_violations=1)
        probe_ok = not violations
        probe_error = str(violations[0]) if violations else None

        if wal is not None and not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal)
        service = cls(dyn, wal=wal)
        return RecoveryReport(
            service=service,
            checkpoint_wal_seq=ckpt_seq,
            wal_records_seen=len(scan.records),
            wal_records_applied=applied,
            wal_tail_truncated=scan.truncated,
            probe_ok=probe_ok,
            probe_error=probe_error,
            landmarks=tuple(sorted(index.landmarks)),
        )
