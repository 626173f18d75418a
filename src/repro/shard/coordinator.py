"""Scatter-gather coordinator: fault-tolerant serving over shard workers.

:class:`ShardedService` fronts a fleet of shard worker processes
(:mod:`repro.shard.worker`), ``nshards`` replica groups of
``replication_factor`` replicas each (:mod:`repro.shard.replication`).
Every worker holds the whole compiled
:class:`~repro.core.plan.QueryPlan`; a shard is the replica group that
answers the pairs routed to it.  The fleet serves the
landmark-constrained ``QUERY`` — single pairs and batches — with answers
**bitwise-equal** to the plan, and it is built to keep answering while
workers die:

* **Routing.**  One phase: each pair goes to the shard owning its
  source ``s`` under the balanced contiguous vertex ranges
  ``[i·n/N, (i+1)·n/N)``, so a hot endpoint keeps landing on the same
  group.  A shard's pairs go out as one ``combine`` RPC per replica, and
  each worker answers through the same kernel an in-process batch uses.
* **Retry + failover.**  Every shard RPC walks the shard's replicas in
  round-robin rotation under a deadline; failures trip the per-replica
  :class:`~repro.breaker.CircuitBreaker`, and attempts are spaced by the
  shared :class:`~repro.retry.BackoffPolicy` (jittered exponential),
  with every wait clamped to the request's remaining
  :class:`~repro.budget.Budget`.
* **Self-healing.**  A shard whose replicas are all dead is restarted
  *in-call* (bounded to one restart per RPC) from the coordinator's
  pinned plans; ``restart_dead()`` / post-batch auto-restart bring
  the fleet back to full strength.
* **Graceful degradation.**  A shard unreachable past the budget yields
  :class:`~repro.budget.DegradedResult` upper bounds (``inf`` — sound,
  never below the true distance) for its pairs, or the request sheds
  with :class:`~repro.errors.Overloaded` at admission; the coordinator
  never hangs: every wait is bounded by ``rpc_timeout``, ``max_attempts``
  and the budget.
* **Atomic epoch cutover.**  :meth:`publish` stages the next plan on
  every shard under a fresh version number while in-flight batches keep
  reading the old one (workers hold ``{version: plan}``),
  then flips the coordinator's version pointer in one assignment and
  garbage-collects the old version.  Attached to a
  :class:`~repro.core.epoch.PlanRegistry`, the registry's publish
  listener marks the fleet stale and the next request refreshes —
  readers are always bitwise-consistent with *some* published epoch,
  never a mix.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor

from ..breaker import CircuitBreaker
from ..budget import Budget, DegradedResult
from ..core.batchquery import charge_label_scans
from ..errors import Overloaded, RequestError, ShardUnavailable
from ..obs import MetricsRegistry
from ..retry import BackoffPolicy
from . import worker as worker_mod
from .replication import (
    ReplicaCallError,
    ReplicaDown,
    ReplicaSet,
    ReplicaTimeout,
)

INF = math.inf

__all__ = ["ShardedService"]

#: Loads copy the whole plan and build its ``G``; give them more room than
#: the per-query RPC timeout (scaled, so tiny test timeouts stay tiny-ish).
_LOAD_TIMEOUT_FACTOR = 20.0


def shard_of(v: int, n: int, nshards: int) -> int:
    """The shard owning vertex ``v`` under balanced contiguous ranges.

    Closed form instead of bisect: with fenceposts ``⌊i·n/N⌋``, vertex
    ``v`` belongs to the largest ``i`` with ``⌊i·n/N⌋ <= v``, which is
    ``⌈(v+1)·N/n⌉ - 1`` (verified exhaustively against bisect in the
    test suite).
    """
    return ((v + 1) * nshards + n - 1) // n - 1


class ShardedService:
    """Sharded, replicated serving tier over one compiled plan.

    Parameters
    ----------
    plan:
        The :class:`~repro.core.plan.QueryPlan` to serve (version 1).
    nshards:
        Worker shards (>= 1); pairs are routed by source vertex range.
    replication_factor:
        Replicas per shard (>= 1).  With 1 there is no failover target —
        a dead worker costs an in-call restart.
    rpc_timeout:
        Per-RPC reply deadline in seconds; also the breaker's base
        backoff.
    max_attempts:
        Full replica-rotation sweeps per RPC before the shard is
        declared unavailable.
    backoff:
        Shared :class:`~repro.retry.BackoffPolicy` pacing the sweeps
        (default: base ``rpc_timeout/4`` capped at ``rpc_timeout``).
    max_inflight:
        Admission bound on concurrent ``query``/``query_batch`` calls;
        excess requests shed with :class:`~repro.errors.Overloaded`.
    auto_restart:
        Restart dead replicas after each batch (best-effort).
    registry:
        Always-on :class:`~repro.obs.MetricsRegistry` (fresh by default);
        per-shard counters live under ``shard.<i>.``.

    Examples
    --------
    ::

        svc = ShardedService(index.compile_plan(), nshards=4,
                             replication_factor=2)
        try:
            answers = svc.query_batch(pairs)      # == plan.query per pair
        finally:
            svc.close()
    """

    def __init__(
        self,
        plan,
        nshards: int = 2,
        replication_factor: int = 1,
        *,
        rpc_timeout: float = 1.0,
        max_attempts: int = 3,
        backoff: BackoffPolicy | None = None,
        max_inflight: int = 64,
        breaker_threshold: int = 3,
        auto_restart: bool = True,
        registry: MetricsRegistry | None = None,
    ):
        if nshards < 1:
            raise RequestError(f"nshards must be >= 1, got {nshards}")
        if replication_factor < 1:
            raise RequestError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        if max_attempts < 1:
            raise RequestError(f"max_attempts must be >= 1, got {max_attempts}")
        if rpc_timeout <= 0:
            raise RequestError(f"rpc_timeout must be > 0, got {rpc_timeout}")
        if max_inflight < 1:
            raise RequestError(f"max_inflight must be >= 1, got {max_inflight}")
        self.nshards = nshards
        self.replication_factor = replication_factor
        self.rpc_timeout = rpc_timeout
        self.max_attempts = max_attempts
        self.max_inflight = max_inflight
        self.auto_restart = auto_restart
        self._backoff = backoff if backoff is not None else BackoffPolicy(
            base_delay=rpc_timeout / 4.0, max_delay=rpc_timeout, jitter=0.1
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._refresh_lock = threading.Lock()
        self._inflight = 0
        self._version = 0
        self._plans: dict = {}  # version -> QueryPlan (the pinned plans)
        self._stale = False
        self._plan_registry = None
        self._listener = None
        self._closed = False
        self._supervisor = None  # attached FleetSupervisor, if any

        def _breaker():
            return CircuitBreaker(
                threshold=breaker_threshold,
                base_delay=rpc_timeout,
                max_delay=rpc_timeout * 16.0,
            )

        self._sets = [
            ReplicaSet(i, replication_factor, _breaker)
            for i in range(nshards)
        ]
        for rset in self._sets:
            stale_counter = self.registry.counter(
                f"shard.{rset.shard_id}.stale_replies"
            )
            for replica in rset.replicas:
                replica.on_stale = stale_counter.inc
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, nshards), thread_name_prefix="shard-rpc"
        )
        try:
            for rset in self._sets:
                for replica in rset.replicas:
                    replica.spawn(fault=worker_mod._SHARD_FAULT)
            self.publish(plan)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Construction from MVCC epochs
    # ------------------------------------------------------------------
    @classmethod
    def from_registry(cls, plan_registry, **kwargs) -> "ShardedService":
        """Build a fleet serving ``plan_registry``'s head epoch and keep
        it current: every epoch publish marks the fleet stale, and the
        next request (or an explicit :meth:`refresh`) broadcasts the new
        snapshot with atomic cutover.

        Because :func:`repro.core.batch.apply_batch` commits a whole
        batch of landmark swaps and edge-weight changes under a *single*
        epoch publish, a batch of σ operations costs the fleet exactly
        one broadcast and one cutover — not σ of them.  The
        ``fleet.publishes`` counter makes this observable (and is
        asserted by the batch differential tests)."""
        svc = cls(plan_registry.head_plan(), **kwargs)
        svc._plan_registry = plan_registry

        def _on_publish(_epoch):
            svc._stale = True

        svc._listener = _on_publish
        plan_registry.add_publish_listener(_on_publish)
        return svc

    # ------------------------------------------------------------------
    # Epoch broadcast + atomic cutover
    # ------------------------------------------------------------------
    def publish(self, plan) -> int:
        """Stage ``plan`` fleet-wide, cut over atomically.

        Returns the new version number.  Staging is parallel per shard;
        a replica that fails to stage is marked dead (it would serve
        version errors otherwise) and restarted lazily.  The cutover —
        one pointer assignment under the lock — only happens once *every*
        shard staged on at least one live replica; on failure the staged
        version is dropped and :class:`~repro.errors.ShardUnavailable`
        raised, leaving the old version serving untouched.
        """
        # Transport tally: "shm" broadcasts ship only the segment's
        # SharedPlanRef (the workers attach it by name), "pickle"
        # broadcasts ship the plan's arrays over every worker pipe.
        shared = plan.shared_buffers()
        if shared is not None:
            payload, transport = shared.ref, "shm"
        else:
            payload, transport = plan, "pickle"
        self.registry.counter(f"fleet.transport.{transport}").inc()
        with self._lock:
            version = self._version + 1
        load_timeout = self.rpc_timeout * _LOAD_TIMEOUT_FACTOR

        def _stage(shard_id: int) -> bool:
            ok = False
            for replica in self._sets[shard_id].replicas:
                if not replica.alive:
                    continue
                try:
                    replica.call("load", (version, payload), load_timeout)
                    ok = True
                    continue
                except ReplicaCallError as exc:
                    if not str(exc).startswith("PlanIntegrityError"):
                        replica.mark_dead()
                        self._scount(shard_id, "stage_failures")
                        continue
                    # The worker's attach-time CRC check caught segment
                    # corruption.  The worker is *healthy* — do not kill
                    # it; quarantine the segment coordinator-side (so
                    # the owner republishes) and re-stage this replica
                    # over the pickle transport from the plan's heap
                    # arrays, which corruption cannot touch.
                    self._quarantine_from_error(str(exc))
                    self.registry.counter("fleet.integrity_fallbacks").inc()
                except (ReplicaDown, ReplicaTimeout):
                    replica.mark_dead()
                    self._scount(shard_id, "stage_failures")
                    continue
                try:
                    replica.call("load", (version, plan), load_timeout)
                    ok = True
                except (ReplicaDown, ReplicaTimeout, ReplicaCallError):
                    replica.mark_dead()
                    self._scount(shard_id, "stage_failures")
            return ok

        staged = list(self._executor.map(_stage, range(self.nshards)))
        if not all(staged):
            self._broadcast_drop(version)
            bad = [i for i, ok in enumerate(staged) if not ok]
            raise ShardUnavailable(
                f"epoch broadcast failed: no live replica staged version "
                f"{version} on shards {bad}",
                shard=bad[0],
            )
        with self._lock:
            old = self._version
            self._plans[version] = plan
            self._version = version  # the atomic cutover
            self._stale = False
            self._plans.pop(old, None)
        if old:
            self._broadcast_drop(old)
        self.registry.counter("fleet.publishes").inc()
        self.registry.gauge("fleet.version").set(version)
        return version

    def _broadcast_drop(self, version: int) -> None:
        for rset in self._sets:
            for replica in rset.replicas:
                if replica.alive:
                    try:
                        replica.call("drop", (version,), self.rpc_timeout)
                    except (ReplicaDown, ReplicaTimeout, ReplicaCallError):
                        pass  # GC is best-effort; restarts start clean

    def refresh(self) -> bool:
        """Re-broadcast the attached registry's head epoch if stale.

        Returns True when a new version was published.  Serialized so
        concurrent readers noticing staleness broadcast once, not N
        times.
        """
        plan_registry = self._plan_registry
        if plan_registry is None or not self._stale:
            return False
        with self._refresh_lock:
            if not self._stale:
                return False
            self.publish(plan_registry.head_plan())
            return True

    # ------------------------------------------------------------------
    # RPC with retry, failover and in-call restart
    # ------------------------------------------------------------------
    def _scount(self, shard_id: int, name: str, n: int = 1) -> None:
        self.registry.counter(f"shard.{shard_id}.{name}").inc(n)

    def _rpc(self, shard_id: int, op: str, payload, budget: Budget | None):
        """One logical shard call; survives replica death and hangs.

        Raises :class:`ShardUnavailable` only after ``max_attempts``
        rotation sweeps (with backoff between them) plus at most one
        in-call restart have all failed, or the budget ran dry.
        """
        rset = self._sets[shard_id]
        restarted = False
        for attempt in range(self.max_attempts):
            if budget is not None and budget.check():
                break
            candidates = [
                r for r in rset.rotation() if r.alive and r.breaker.allow()
            ]
            if not candidates and not restarted:
                restarted = True
                revived = self._restart_one(rset)
                if revived is not None:
                    candidates = [revived]
            for replica in candidates:
                timeout = self.rpc_timeout
                if budget is not None:
                    timeout = budget.clamp(timeout)
                    if timeout <= 0:
                        break
                self._scount(shard_id, "rpc.calls")
                try:
                    result = replica.call(op, payload, timeout)
                except ReplicaTimeout:
                    self._scount(shard_id, "rpc.timeouts")
                    replica.breaker.record_failure()
                except ReplicaDown:
                    self._scount(shard_id, "rpc.deaths")
                    replica.breaker.record_failure()
                except ReplicaCallError:
                    self._scount(shard_id, "rpc.errors")
                    replica.breaker.record_failure()
                else:
                    replica.breaker.record_success()
                    return result
                self._scount(shard_id, "rpc.failovers")
            if attempt + 1 < self.max_attempts:
                self._scount(shard_id, "rpc.retries")
                cap = budget.remaining_seconds() if budget is not None else None
                self._backoff.pause(attempt, cap=cap)
        self._scount(shard_id, "unavailable")
        raise ShardUnavailable(
            f"shard {shard_id}: no replica answered {op!r} after "
            f"{self.max_attempts} attempts",
            shard=shard_id,
        )

    @staticmethod
    def _quarantine_from_error(message: str) -> None:
        """Quarantine the segment a worker's integrity error names.

        Worker error replies are strings (``"PlanIntegrityError: segment
        'psm_...' ..."``); the quoted name is all the coordinator needs
        to bar its own side from the segment and trigger republish.
        """
        import re

        from ..core.shm import quarantine

        match = re.search(r"segment '([^']+)'", message)
        if match:
            quarantine(match.group(1))

    def _restart_one(self, rset: ReplicaSet, replica=None):
        """Respawn one dead replica from the pinned plans; None on failure.

        ``replica`` picks a specific dead member (the supervisor's
        targeted repair); by default the first dead one is revived.
        """
        if replica is None:
            dead = rset.dead()
            if not dead:
                return None
            replica = dead[0]
        elif replica.alive:
            return None
        with self._lock:
            plans = dict(self._plans)
        load_timeout = self.rpc_timeout * _LOAD_TIMEOUT_FACTOR
        try:
            replica.spawn(fault=worker_mod._SHARD_FAULT)
            for version, plan in plans.items():
                # Always the pickled plan: a segment ref would race epoch
                # retirement — the plan may have unlinked its segment
                # since this version was published.
                replica.call("load", (version, plan), load_timeout)
        except (ReplicaDown, ReplicaTimeout, ReplicaCallError):
            replica.mark_dead()
            self._scount(rset.shard_id, "restart_failures")
            return None
        replica.breaker.record_success()  # fresh process: close the breaker
        self._scount(rset.shard_id, "restarts")
        self.registry.counter("fleet.restarts").inc()
        return replica

    def restart_dead(self) -> int:
        """Respawn every dead replica from the pinned plans; returns the
        number revived."""
        revived = 0
        for rset in self._sets:
            while rset.dead():
                if self._restart_one(rset) is None:
                    break
                revived += 1
        return revived

    # ------------------------------------------------------------------
    # Supervisor surface
    # ------------------------------------------------------------------
    @property
    def replica_sets(self) -> tuple:
        """The per-shard :class:`ReplicaSet`\\ s (read-only view) — the
        surface the :class:`~repro.shard.supervisor.FleetSupervisor`
        heartbeats and repairs through."""
        return tuple(self._sets)

    def restart_replica(self, rset: ReplicaSet, replica=None) -> bool:
        """Restart one dead replica of ``rset`` from the pinned plans.

        Replays **every** pinned version into the fresh process (the
        epoch re-broadcast) and closes its breaker.  Returns ``True`` on
        success; ``False`` when nothing was dead or the restart failed
        (the supervisor's backoff ladder decides when to try again).
        """
        return self._restart_one(rset, replica) is not None

    def attach_supervisor(self, supervisor) -> None:
        """Roll ``supervisor``'s verdict into :meth:`health` from now on."""
        self._supervisor = supervisor

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _admit(self):
        with self._lock:
            if self._closed:
                raise RequestError("ShardedService is closed")
            if self._inflight >= self.max_inflight:
                self.registry.counter("fleet.shed").inc()
                raise Overloaded(
                    f"sharded fleet at max_inflight={self.max_inflight}"
                )
            self._inflight += 1

    def _release(self):
        with self._lock:
            self._inflight -= 1

    def query(self, s: int, t: int, budget: Budget | None = None) -> float:
        """``QUERY(s, t)`` — bitwise-equal to the plan, or a
        :class:`~repro.budget.DegradedResult` ``inf`` upper bound when the
        owning shard is unreachable within budget."""
        return self.query_batch([(s, t)], budget)[0]

    def query_batch(self, pairs, budget: Budget | None = None) -> list[float]:
        """Scatter-gather ``QUERY`` over ``pairs``; never hangs.

        Answers are positionally aligned with ``pairs``.  Every answer is
        either bitwise-equal to ``plan.query(s, t)`` or a
        :class:`~repro.budget.DegradedResult` (``reason`` =
        ``"shard_unavailable"`` / the budget's expiry reason).
        """
        pairs = list(pairs)
        self._admit()
        try:
            if self._stale:
                self.refresh()
            with self._lock:
                version = self._version
                plan = self._plans[version]
            self.registry.counter("fleet.batches").inc()
            self.registry.counter("fleet.queries").inc(len(pairs))
            return self._run_batch(pairs, version, plan, budget)
        finally:
            self._release()
            if self.auto_restart and any(r.dead() for r in self._sets):
                self.restart_dead()

    def _run_batch(self, pairs, version, plan, budget):
        n = plan.n
        nshards = self.nshards
        rows = plan._rows
        results: list = [None] * len(pairs)
        per_shard: dict[int, list] = {}
        for idx, (s, t) in enumerate(pairs):
            if not (
                isinstance(s, int)
                and isinstance(t, int)
                and 0 <= s < n
                and 0 <= t < n
            ):
                raise RequestError(
                    f"query pair ({s!r}, {t!r}) is not a pair of vertex "
                    f"ids in [0, {n})"
                )
            if not rows[s] or not rows[t]:
                results[idx] = INF  # what the plan answers, shard-free
                continue
            per_shard.setdefault(shard_of(s, n, nshards), []).append(idx)
        if budget is not None:
            charge_label_scans(rows, pairs, budget)

        # Each shard's pairs go out as one combine per replica, in
        # rotation order, so every member of the group serves the batch.
        rf = self.replication_factor

        def _combine(item):
            shard_id, idxs = item
            step = -(-len(idxs) // rf)
            for lo in range(0, len(idxs), step):
                chunk = idxs[lo : lo + step]
                try:
                    values = self._rpc(
                        shard_id,
                        "combine",
                        (version, [pairs[i] for i in chunk]),
                        budget,
                    )
                except ShardUnavailable:
                    return  # the rest of the shard's pairs degrade below
                for idx, value in zip(chunk, values):
                    results[idx] = value

        list(self._executor.map(_combine, per_shard.items()))

        # Anything still unanswered degrades: a sound (infinite) upper
        # bound tagged with why, never a hang and never a wrong number.
        reason = "shard_unavailable"
        if budget is not None and budget.exceeded:
            reason = budget.reason
        degraded = 0
        for idx, value in enumerate(results):
            if value is None:
                results[idx] = DegradedResult(
                    INF, is_upper_bound=True, reason=reason
                )
                degraded += 1
        if degraded:
            self.registry.counter("fleet.degraded").inc(degraded)
        return results

    # ------------------------------------------------------------------
    # Health + lifecycle
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Fleet-level roll-up: per-shard replica/breaker state + totals.

        Per-replica snapshots carry breaker ``state`` and
        ``breaker_retry_after`` (seconds until a tripped breaker next
        admits a probe) plus ``stale_replies``.  With a
        :class:`~repro.shard.supervisor.FleetSupervisor` attached the
        top-level ``status`` is the *supervised* verdict — hysteresis
        included, so a fleet that just finished a restart storm reports
        ``"recovering"`` until it has stayed clean long enough — and the
        raw instantaneous verdict moves to ``"raw_status"``.
        """
        shards = {}
        alive = 0
        for rset in self._sets:
            snap = rset.snapshot()
            snap["breaker_open"] = any(
                r.breaker.state != "closed" for r in rset.replicas
            )
            shards[str(rset.shard_id)] = snap
            alive += snap["alive"]
        counters = {
            name: self.registry.counter(name).value
            for name in (
                "fleet.batches",
                "fleet.queries",
                "fleet.degraded",
                "fleet.shed",
                "fleet.restarts",
                "fleet.publishes",
                "fleet.integrity_fallbacks",
            )
        }
        with self._lock:
            version = self._version
            inflight = self._inflight
        total = self.nshards * self.replication_factor
        raw_status = "ok" if alive == total else (
            "degraded" if all(
                rset.alive_count() for rset in self._sets
            ) else "unavailable"
        )
        report = {
            "status": raw_status,
            "version": version,
            "stale": self._stale,
            "inflight": inflight,
            "replicas_alive": alive,
            "replicas_total": total,
            "shards": shards,
            **counters,
        }
        supervisor = self._supervisor
        if supervisor is not None:
            report["raw_status"] = raw_status
            report["supervisor"] = supervisor.state()
            # Hysteresis: only the supervisor may call the fleet "ok",
            # and only after enough consecutive clean sweeps; a raw
            # outage (worse than the supervisor's last verdict) still
            # shows immediately.
            sup_status = supervisor.status
            rank = {"ok": 0, "recovering": 1, "degraded": 2, "unavailable": 3}
            report["status"] = max(
                raw_status, sup_status, key=lambda s: rank.get(s, 3)
            )
        return report

    def metrics(self) -> dict:
        """Snapshot of the always-on fleet registry."""
        return self.registry.snapshot()

    def close(self) -> None:
        """Shut the fleet down (idempotent): polite shutdown RPCs, then
        hard termination, then the RPC thread pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._supervisor is not None:
            try:
                self._supervisor.stop()
            except Exception:  # pragma: no cover - teardown best-effort
                pass
        if self._plan_registry is not None and self._listener is not None:
            self._plan_registry.remove_publish_listener(self._listener)
        for rset in self._sets:
            for replica in rset.replicas:
                if replica.alive:
                    try:
                        replica.call("shutdown", None, min(self.rpc_timeout, 0.5))
                    except (ReplicaDown, ReplicaTimeout, ReplicaCallError):
                        pass
            rset.terminate()
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedService(nshards={self.nshards}, "
            f"rf={self.replication_factor}, version={self._version})"
        )
