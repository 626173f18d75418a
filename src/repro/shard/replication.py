"""Replica lifecycle for one shard: spawn, ping, call, restart, retire.

Each shard runs ``replication_factor`` identical worker processes
(:func:`repro.shard.worker.shard_worker_main`) holding the same plan.
:class:`Replica` owns one such process end-to-end — the pipe, the
request-id sequence, a per-replica :class:`~repro.breaker.CircuitBreaker`
and liveness bookkeeping — and :class:`ReplicaSet` groups a shard's
replicas with the spawn/restart machinery the coordinator drives.

The RPC discipline lives in :meth:`Replica.call`:

* every request carries a fresh ``req_id``; replies are matched on it,
  so a *stale* reply (a slow worker answering after we timed out and
  moved on) is drained and discarded instead of being mistaken for the
  answer to the current request — the drain is **bounded**
  (``_MAX_STALE_REPLIES`` per call, tallied in ``stale_replies`` and the
  fleet's ``shard.<i>.stale_replies`` counter), so a babbling or
  fault-injected worker feeding garbage replies cannot spin the loop
  forever;
* a timeout raises :class:`ReplicaTimeout` and leaves the process alive
  (hung-or-slow is not proof of death — the next call may drain its
  late reply and succeed);
* a broken pipe raises :class:`ReplicaDown` and marks the replica dead;
* an application-level error reply raises :class:`ReplicaCallError`.

All three are *internal* signals: the coordinator's retry/failover loop
translates them into breaker records and, ultimately, into
:class:`~repro.errors.ShardUnavailable` / degraded answers.  Worker
processes are daemonic, so an abandoned fleet can never outlive the
coordinator process.
"""

from __future__ import annotations

import multiprocessing
import time

from ..breaker import CircuitBreaker
from .worker import shard_worker_main

__all__ = [
    "Replica",
    "ReplicaSet",
    "ReplicaCallError",
    "ReplicaDown",
    "ReplicaTimeout",
]


class ReplicaDown(Exception):
    """The replica's process or pipe is gone; it needs a restart."""


class ReplicaTimeout(Exception):
    """The replica did not answer within the deadline (alive or hung)."""


class ReplicaCallError(Exception):
    """The replica answered with an error reply (it is alive)."""


def _mp_context():
    """Prefer ``fork`` (cheap, no re-import); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


#: Stale replies drained per call before declaring the worker babbling.
#: A healthy worker leaves at most a handful of late replies in the pipe
#: (one per timed-out request); dozens in a single call means the
#: process is flooding the pipe and is treated as a timeout.
_MAX_STALE_REPLIES = 64


class Replica:
    """One worker process of one shard, with its breaker and pipe."""

    __slots__ = (
        "shard_id",
        "replica_id",
        "breaker",
        "alive",
        "restarts",
        "stale_replies",
        "on_stale",
        "_proc",
        "_conn",
        "_req_seq",
        "_clock",
        "_ctx",
        "_fault",
    )

    def __init__(self, shard_id, replica_id, breaker, ctx=None, clock=None):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.breaker = breaker
        self.alive = False
        self.restarts = 0
        #: Lifetime count of stale (mismatched req_id) replies drained.
        self.stale_replies = 0
        #: Optional ``callable(n)`` the coordinator wires to its
        #: ``shard.<i>.stale_replies`` counter.
        self.on_stale = None
        self._proc = None
        self._conn = None
        self._req_seq = 0
        self._clock = clock if clock is not None else time.monotonic
        self._ctx = ctx if ctx is not None else _mp_context()
        self._fault = None

    @property
    def pid(self):
        proc = self._proc
        return proc.pid if proc is not None else None

    def spawn(self, fault=None) -> None:
        """Start (or replace) the worker process; counts as a restart when
        one ran before."""
        if self._proc is not None:
            self.terminate()
            self.restarts += 1
        self._fault = fault
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(child, self.shard_id, self.replica_id, fault),
            name=f"shard-{self.shard_id}-r{self.replica_id}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._proc = proc
        self._conn = parent
        self.alive = True

    def call(self, op: str, payload, timeout: float):
        """One RPC; raises ``ReplicaDown`` / ``ReplicaTimeout`` /
        ``ReplicaCallError`` (never blocks past ``timeout``)."""
        if not self.alive or self._conn is None:
            raise ReplicaDown(f"{self!r} is not running")
        self._req_seq += 1
        req_id = self._req_seq
        conn = self._conn
        try:
            conn.send((req_id, op, payload))
        except (OSError, BrokenPipeError, ValueError) as exc:
            self.mark_dead()
            raise ReplicaDown(f"{self!r}: send failed: {exc}") from exc
        deadline = self._clock() + timeout
        drained = 0
        while True:
            remaining = deadline - self._clock()
            if remaining <= 0:
                raise ReplicaTimeout(
                    f"{self!r}: no reply to {op!r} within {timeout:.3f}s"
                )
            try:
                if not conn.poll(remaining):
                    raise ReplicaTimeout(
                        f"{self!r}: no reply to {op!r} within {timeout:.3f}s"
                    )
                rid, ok, result = conn.recv()
            except (EOFError, OSError, BrokenPipeError) as exc:
                self.mark_dead()
                raise ReplicaDown(f"{self!r}: pipe broke: {exc}") from exc
            if rid != req_id:
                # Stale reply from an earlier timed-out call.  Bounded:
                # a babbling worker could otherwise feed this loop
                # replies faster than the deadline drains.
                drained += 1
                self.stale_replies += 1
                if self.on_stale is not None:
                    self.on_stale(1)
                if drained >= _MAX_STALE_REPLIES:
                    raise ReplicaTimeout(
                        f"{self!r}: drained {drained} stale replies to "
                        f"{op!r} without a matching one (babbling worker)"
                    )
                continue
            if not ok:
                raise ReplicaCallError(result)
            return result

    def mark_dead(self) -> None:
        self.alive = False

    def terminate(self) -> None:
        """Hard-stop the process and close the pipe (idempotent)."""
        self.alive = False
        conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
        proc, self._proc = self._proc, None
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=2.0)

    def snapshot(self) -> dict:
        """Flat health view for the fleet roll-up.

        ``breaker_retry_after`` is the seconds until a non-closed breaker
        next admits a half-open probe (0.0 when closed) — operators can
        see *when* a tripped replica will be retried, not just that it
        tripped.
        """
        return {
            "alive": self.alive,
            "pid": self.pid,
            "restarts": self.restarts,
            "stale_replies": self.stale_replies,
            "breaker": self.breaker.state,
            "breaker_retry_after": self.breaker.retry_after(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica(shard={self.shard_id}, replica={self.replica_id}, "
            f"alive={self.alive}, pid={self.pid})"
        )


class ReplicaSet:
    """A shard's replicas plus round-robin ordering for failover."""

    __slots__ = ("shard_id", "replicas", "_next")

    def __init__(
        self,
        shard_id: int,
        replication_factor: int,
        breaker_factory,
        ctx=None,
        clock=None,
    ):
        self.shard_id = shard_id
        self.replicas = [
            Replica(shard_id, r, breaker_factory(), ctx=ctx, clock=clock)
            for r in range(replication_factor)
        ]
        self._next = 0

    def rotation(self):
        """Replicas in round-robin order, advancing the start each call —
        spreads load across replicas and varies the failover order."""
        k = len(self.replicas)
        start = self._next
        self._next = (start + 1) % k
        return [self.replicas[(start + i) % k] for i in range(k)]

    def alive_count(self) -> int:
        return sum(1 for r in self.replicas if r.alive)

    def dead(self):
        return [r for r in self.replicas if not r.alive]

    def terminate(self) -> None:
        for r in self.replicas:
            r.terminate()

    def snapshot(self) -> dict:
        return {
            "alive": self.alive_count(),
            "replicas": [r.snapshot() for r in self.replicas],
        }
