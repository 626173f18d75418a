"""Fleet supervisor: out-of-band heartbeats, hang detection, self-repair.

The coordinator (:mod:`repro.shard.coordinator`) heals *in-call*: a
query that trips over a dead replica triggers one bounded restart, and
``auto_restart`` sweeps after each batch.  That leaves two holes on the
road to serving real traffic:

* a replica that dies (or wedges) while no query is routed to it stays
  broken — invisible until a request pays the failover latency;
* a *hung* worker (process alive, event loop stuck) never breaks its
  pipe, so nothing in the call path ever declares it dead.

:class:`FleetSupervisor` closes both.  It runs an out-of-band watchdog
loop — one :meth:`tick` per ``period`` — that

#. **heartbeats** every live replica with a deadline-bounded ``ping``
   RPC (the worker answers it even mid-fault-storm because pings bypass
   version lookups);
#. discriminates **hung from slow**: a ping timeout is a *miss*, and
   only ``hang_ticks`` consecutive misses declare the worker hung and
   mark it dead — a worker that answers again before the deadline keeps
   its process (and its warm caches);
#. **repairs** every dead replica from the coordinator's pinned plans
   (:meth:`ShardedService.restart_replica`, which replays *every*
   pinned version into the fresh process — the epoch re-broadcast), with
   restarts damped by a :class:`~repro.retry.BackoffPolicy` budget per
   replica so a crash-looping worker cannot start a restart storm; a
   replica that stays healthy ``stable_ticks`` ticks earns its budget
   back.  Because a dead replica is exactly what puts a shard below its
   replication factor, the same pass restores full replication;
#. optionally runs an **integrity check** every ``integrity_every``
   ticks (wired to the plan segment's CRC verify and/or a
   :class:`~repro.core.auditor.PlanAuditor` tick by the service layer);
#. rolls its verdict into fleet ``health()`` **with hysteresis**: after
   a storm the fleet reports ``recovering`` until ``hysteresis_ticks``
   consecutive clean sweeps, so flapping replicas cannot blink the
   status green.

Everything time-like is injectable: ``clock`` (a
:class:`~repro.testing.faults.FakeClock` in tests) feeds the backoff
deadlines, and :meth:`run` drives N ticks synchronously with zero real
sleeping — tier-1 tests script the whole
timeout → restart → re-broadcast → healthy arc deterministically.
:meth:`start` runs the same loop on a daemon thread for production.

Counters (in the fleet's registry): ``supervisor.ticks``, ``.pings``,
``.ping_timeouts``, ``.ping_errors``, ``.deaths_detected``,
``.hangs_detected``, ``.restarts``, ``.restart_failures``,
``.restarts_deferred``, ``.integrity_checks``, ``.integrity_failures``.
"""

from __future__ import annotations

import threading
import time

from ..obs import MetricsRegistry
from ..retry import BackoffPolicy
from .replication import ReplicaCallError, ReplicaDown, ReplicaTimeout

__all__ = ["FleetSupervisor"]

#: Test seam (:func:`repro.testing.faults.drop_heartbeats`): a callable
#: ``(shard_id, replica_id, tick) -> bool`` — ``True`` drops the probe
#: before it reaches the worker, which is indistinguishable from a hung
#: worker to the supervisor.  Always ``None`` in production.
_PING_HOOK = None


class _ReplicaWatch:
    """The supervisor's per-replica memory between ticks."""

    __slots__ = (
        "misses",
        "restart_attempts",
        "next_restart_at",
        "healthy_streak",
    )

    def __init__(self):
        self.misses = 0  # consecutive heartbeat timeouts
        self.restart_attempts = 0  # backoff ladder position
        self.next_restart_at = 0.0  # earliest allowed restart (clock time)
        self.healthy_streak = 0  # consecutive successful pings

    def snapshot(self) -> dict:
        return {
            "misses": self.misses,
            "restart_attempts": self.restart_attempts,
            "healthy_streak": self.healthy_streak,
        }


class FleetSupervisor:
    """Background watchdog over one :class:`ShardedService` fleet.

    Parameters
    ----------
    fleet:
        The :class:`~repro.shard.coordinator.ShardedService` to watch.
        The supervisor attaches itself (``fleet.attach_supervisor``), so
        fleet ``health()`` reports the supervised status from then on.
    period:
        Seconds between ticks when running on the background thread
        (:meth:`start`); :meth:`tick`/:meth:`run` ignore it except as
        the :class:`~repro.testing.faults.FakeClock` advance unit.
    ping_timeout:
        Heartbeat reply deadline (default: the fleet's ``rpc_timeout``).
    hang_ticks:
        Consecutive missed heartbeats before a live-looking process is
        declared hung and marked dead (>= 1).
    restart_backoff:
        :class:`~repro.retry.BackoffPolicy` spacing restart attempts per
        replica (default: base ``period`` capped at ``16 * period``).
    hysteresis_ticks:
        Consecutive fully-healthy ticks before the supervised status
        returns to ``"ok"`` (>= 1).
    stable_ticks:
        Healthy-streak length that forgives a replica's accumulated
        restart-backoff debt (its next crash restarts promptly again).
    integrity_check:
        Optional ``callable() -> bool`` (``True`` = clean) run every
        ``integrity_every`` ticks, e.g. the owning plan's segment CRC
        verify or a :class:`~repro.core.auditor.PlanAuditor` tick.
    clock:
        Monotonic clock (default ``time.monotonic``); inject a
        :class:`~repro.testing.faults.FakeClock` for deterministic tests.
    registry:
        Metrics registry for ``supervisor.*`` (default: the fleet's).
    """

    def __init__(
        self,
        fleet,
        *,
        period: float = 1.0,
        ping_timeout: float | None = None,
        hang_ticks: int = 3,
        restart_backoff: BackoffPolicy | None = None,
        hysteresis_ticks: int = 2,
        stable_ticks: int = 8,
        integrity_check=None,
        integrity_every: int = 4,
        clock=None,
        registry: MetricsRegistry | None = None,
    ):
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        if hang_ticks < 1:
            raise ValueError(f"hang_ticks must be >= 1, got {hang_ticks}")
        if hysteresis_ticks < 1:
            raise ValueError(
                f"hysteresis_ticks must be >= 1, got {hysteresis_ticks}"
            )
        if integrity_every < 1:
            raise ValueError(
                f"integrity_every must be >= 1, got {integrity_every}"
            )
        self.fleet = fleet
        self.period = period
        self.ping_timeout = (
            ping_timeout if ping_timeout is not None else fleet.rpc_timeout
        )
        self.hang_ticks = hang_ticks
        self.hysteresis_ticks = hysteresis_ticks
        self.stable_ticks = stable_ticks
        self.integrity_check = integrity_check
        self.integrity_every = integrity_every
        self._backoff = (
            restart_backoff
            if restart_backoff is not None
            else BackoffPolicy(
                base_delay=period, max_delay=period * 16.0, jitter=0.1
            )
        )
        self._clock = clock if clock is not None else time.monotonic
        self.registry = registry if registry is not None else fleet.registry
        self.ticks = 0
        self._events = 0
        self._ok_streak = 0
        self._status = "recovering"  # no verdict until the first tick
        self._watches: dict[tuple[int, int], _ReplicaWatch] = {}
        self._thread = None
        self._stop = threading.Event()
        self._tick_lock = threading.Lock()
        fleet.attach_supervisor(self)

    # ------------------------------------------------------------------
    # Tick machinery
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(f"supervisor.{name}").inc(n)

    def _watch(self, shard_id: int, replica_id: int) -> _ReplicaWatch:
        key = (shard_id, replica_id)
        watch = self._watches.get(key)
        if watch is None:
            watch = self._watches[key] = _ReplicaWatch()
        return watch

    def tick(self) -> dict:
        """One watchdog sweep: heartbeat, detect, repair, judge.

        Returns the post-tick :meth:`state` snapshot.  Thread-safe with
        itself (ticks serialize), cheap when the fleet is healthy: one
        tiny ping RPC per replica.
        """
        with self._tick_lock:
            tick = self.ticks
            self.ticks += 1
            self._count("ticks")
            self._events = 0  # misses/deaths/restarts observed this tick
            self._heartbeat_pass(tick)
            self._repair_pass()
            if (
                self.integrity_check is not None
                and tick % self.integrity_every == 0
            ):
                self._count("integrity_checks")
                try:
                    clean = bool(self.integrity_check())
                except Exception:  # noqa: BLE001 - a check must not kill us
                    clean = False
                if not clean:
                    self._count("integrity_failures")
            self._judge_pass()
            return self.state()

    def _heartbeat_pass(self, tick: int) -> None:
        hook = _PING_HOOK
        for rset in self.fleet.replica_sets:
            for replica in rset.replicas:
                if not replica.alive:
                    continue
                watch = self._watch(rset.shard_id, replica.replica_id)
                self._count("pings")
                dropped = hook is not None and hook(
                    rset.shard_id, replica.replica_id, tick
                )
                try:
                    if dropped:
                        raise ReplicaTimeout(
                            f"heartbeat to shard {rset.shard_id} replica "
                            f"{replica.replica_id} dropped by fault"
                        )
                    replica.call("ping", None, self.ping_timeout)
                except ReplicaTimeout:
                    self._count("ping_timeouts")
                    self._events += 1
                    watch.healthy_streak = 0
                    watch.misses += 1
                    if watch.misses >= self.hang_ticks:
                        # Process alive, worker unresponsive for the
                        # whole window: hung.  Mark it dead so the
                        # repair pass below replaces it.
                        replica.mark_dead()
                        watch.misses = 0
                        self._count("hangs_detected")
                except ReplicaDown:
                    # call() already marked it dead; repair pass acts.
                    self._count("deaths_detected")
                    self._events += 1
                    watch.healthy_streak = 0
                    watch.misses = 0
                except ReplicaCallError:
                    # An error *reply* proves the worker is responsive;
                    # liveness-wise this is a successful heartbeat.
                    self._count("ping_errors")
                    self._note_healthy(watch)
                else:
                    self._note_healthy(watch)

    def _note_healthy(self, watch: _ReplicaWatch) -> None:
        watch.misses = 0
        watch.healthy_streak += 1
        if (
            watch.healthy_streak >= self.stable_ticks
            and watch.restart_attempts
        ):
            # Sustained health forgives the backoff debt: the *next*
            # failure restarts promptly instead of inheriting delay
            # earned by crashes long since survived.
            watch.restart_attempts = 0
            watch.next_restart_at = 0.0

    def _repair_pass(self) -> None:
        now = self._clock()
        for rset in self.fleet.replica_sets:
            for replica in rset.replicas:
                if replica.alive:
                    continue
                self._events += 1
                watch = self._watch(rset.shard_id, replica.replica_id)
                if now < watch.next_restart_at:
                    # Backoff damping: this replica crashed recently
                    # (and possibly repeatedly); let the ladder space
                    # the attempts out instead of storming restarts.
                    self._count("restarts_deferred")
                    continue
                attempt = watch.restart_attempts
                watch.restart_attempts += 1
                watch.next_restart_at = now + self._backoff.delay(attempt)
                watch.healthy_streak = 0
                if self.fleet.restart_replica(rset, replica):
                    # restart_replica replayed every pinned version into
                    # the fresh worker — the epoch re-broadcast.
                    self._count("restarts")
                else:
                    self._count("restart_failures")

    def _judge_pass(self) -> None:
        all_alive = True
        shard_out = False
        for rset in self.fleet.replica_sets:
            alive = rset.alive_count()
            if alive < len(rset.replicas):
                all_alive = False
            if alive == 0:
                shard_out = True
        if not all_alive:
            self._ok_streak = 0
            self._status = "unavailable" if shard_out else "degraded"
        elif self._events:
            # Everyone is alive *now*, but this sweep saw trouble
            # (misses, a death, a same-tick restart).  Hysteresis: an
            # eventful tick never counts toward the ok streak, so a
            # flapping replica cannot blink the status green.
            self._ok_streak = 0
            self._status = "recovering"
        else:
            self._ok_streak += 1
            self._status = (
                "ok" if self._ok_streak >= self.hysteresis_ticks
                else "recovering"
            )

    # ------------------------------------------------------------------
    # State + drivers
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        """Supervised verdict: ``ok`` / ``recovering`` / ``degraded`` /
        ``unavailable`` (hysteresis applied; see :meth:`_judge_pass`)."""
        return self._status

    @property
    def converged(self) -> bool:
        """Whether the fleet has been fully healthy long enough."""
        return self._status == "ok"

    def state(self) -> dict:
        """Flat snapshot for ``health()`` roll-up and test assertions."""
        return {
            "status": self._status,
            "ticks": self.ticks,
            "ok_streak": self._ok_streak,
            "period": self.period,
            "running": self._thread is not None,
            "watches": {
                f"{shard}.{replica}": watch.snapshot()
                for (shard, replica), watch in sorted(self._watches.items())
            },
        }

    def run(self, ticks: int, advance: bool = True) -> dict:
        """Drive ``ticks`` sweeps synchronously (no real sleeping).

        With ``advance=True`` and an advanceable clock (a
        :class:`~repro.testing.faults.FakeClock`), the clock moves
        ``period`` forward before each tick — one call scripts the whole
        wall-clock schedule a production thread would experience.
        Returns the final :meth:`state`.
        """
        state = self.state()
        advancer = getattr(self._clock, "advance", None)
        for _ in range(ticks):
            if advance and advancer is not None:
                advancer(self.period)
            state = self.tick()
        return state

    def run_until_ok(self, max_ticks: int, advance: bool = True) -> int:
        """Tick until :attr:`converged` or ``max_ticks`` spent.

        Returns the number of ticks consumed; raises ``RuntimeError``
        when the fleet failed to converge — the chaos suite's bounded
        convergence guarantee, as an API.
        """
        for spent in range(max_ticks):
            if self.converged:
                return spent
            self.run(1, advance=advance)
        if self.converged:
            return max_ticks
        raise RuntimeError(
            f"fleet did not converge to ok within {max_ticks} supervisor "
            f"ticks (status={self._status!r})"
        )

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Run :meth:`tick` every ``period`` seconds on a daemon thread
        (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()

        def _loop():
            while not self._stop.wait(self.period):
                try:
                    self.tick()
                except Exception:  # noqa: BLE001 - watchdog must survive
                    pass

        self._thread = threading.Thread(
            target=_loop, name="fleet-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        """Stop the background thread (idempotent; safe mid-tick)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=timeout)

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetSupervisor(status={self._status!r}, ticks={self.ticks}, "
            f"period={self.period})"
        )
