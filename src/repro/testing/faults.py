"""Deterministic fault injection for the crash-safety layer.

Failure handling that is only exercised by real crashes is failure
handling that silently rots.  This module turns the interesting crash
sites into *repeatable* test inputs:

* :func:`fail_at_label_write` — raise on the N-th label write, anywhere in
  the process: mid-``UPGRADE-LMK``, mid-``DOWNGRADE-LMK``, mid-merge.
  This is the workhorse for proving transactional rollback.
* :func:`fail_at_phase` — raise exactly at a named internal phase boundary
  of Algorithm 1/2 (``"highway"``/``"search"`` in upgrade, ``"sweep"`` in
  downgrade), the nastiest partial states the algorithms pass through.
* :class:`WorkerFault` + :func:`inject_worker_fault` — make a chosen
  parallel-build task raise, or kill its worker process outright
  (``BrokenProcessPool``), on chosen attempts only, to drive the
  retry/serial-fallback machinery of
  :func:`~repro.core.build.build_hcl_parallel`.
* :func:`corrupt_byte` / :func:`truncate_tail` — bit-flip or truncate
  on-disk artifacts (checkpoints, WALs) the way dying disks and dying
  processes do.
* :class:`FakeClock` + :func:`slow_search` — a deterministic clock to
  inject into :class:`~repro.budget.Budget` /
  :class:`~repro.breaker.CircuitBreaker`, and a fault that advances it by
  a fixed amount per settled vertex of the budgeted refinement search, so
  deadline expiry lands on an exact, machine-independent schedule.

All injection is scoped by context managers that restore the patched seam
on exit, so a failing assertion cannot leak a fault into the next test.
Faults raise :class:`InjectedFault`, which is deliberately *not* a
:class:`~repro.errors.ReproError`: it exercises the foreign-exception
paths (wrapping, auditing) that real bugs take.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

__all__ = [
    "FakeClock",
    "HeartbeatFault",
    "InjectedFault",
    "ShardFault",
    "WorkerFault",
    "corrupt_byte",
    "corrupt_segment",
    "drop_heartbeats",
    "fail_at_label_write",
    "fail_at_phase",
    "inject_shard_fault",
    "inject_worker_fault",
    "slow_search",
    "truncate_tail",
]


class InjectedFault(Exception):
    """A deliberately injected failure.

    Intentionally outside the ``ReproError`` hierarchy so tests observe
    how the library treats exceptions it does not own.
    """


class FakeClock:
    """A manually-advanced monotonic clock for deterministic time tests.

    Drop-in for the ``clock`` parameter of
    :class:`~repro.budget.Budget` and
    :class:`~repro.breaker.CircuitBreaker`: calling the instance returns
    the current fake time; :meth:`advance` moves it forward.  Tests
    script deadline expiries and breaker backoff schedules exactly,
    without sleeping.

    Examples
    --------
    >>> clock = FakeClock()
    >>> clock()
    0.0
    >>> clock.advance(1.5)
    >>> clock()
    1.5
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock by {seconds}")
        self.now += seconds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FakeClock(now={self.now})"


# ----------------------------------------------------------------------
# In-process faults
# ----------------------------------------------------------------------
@contextmanager
def fail_at_label_write(
    nth: int, exc: Callable[[str], Exception] = InjectedFault
) -> Iterator[dict]:
    """Raise on the ``nth`` (1-based) label write inside the block.

    Counts every :meth:`~repro.core.labeling.Labeling.add_entry` and
    :meth:`~repro.core.labeling.Labeling.remove_entry` call on *any*
    labeling, so the fault lands mid-algorithm wherever the count says —
    sweep ``nth`` over a range to march a crash through an entire update.
    Yields the counter state dict (key ``"writes"``) for assertions.
    """
    from ..core.labeling import Labeling

    if nth < 1:
        raise ValueError(f"nth must be >= 1, got {nth}")
    state = {"writes": 0}
    orig_add = Labeling.add_entry
    orig_remove = Labeling.remove_entry

    def counting(orig):
        def wrapper(self, *args, **kwargs):
            state["writes"] += 1
            if state["writes"] == nth:
                raise exc(f"injected fault at label write {nth}")
            return orig(self, *args, **kwargs)

        return wrapper

    Labeling.add_entry = counting(orig_add)
    Labeling.remove_entry = counting(orig_remove)
    try:
        yield state
    finally:
        Labeling.add_entry = orig_add
        Labeling.remove_entry = orig_remove


@contextmanager
def fail_at_phase(
    phase: str, exc: Callable[[str], Exception] = InjectedFault
) -> Iterator[None]:
    """Raise when Algorithm 1/2 reports the named phase boundary.

    Valid names: ``"highway"`` and ``"search"`` (``UPGRADE-LMK``),
    ``"sweep"`` (``DOWNGRADE-LMK``).  The exception fires *after* the
    phase completes — precisely the partial-yet-internally-consistent
    states a crash would freeze.
    """
    from ..core import downgrade, upgrade

    def hook(name: str) -> None:
        if name == phase:
            raise exc(f"injected fault at phase boundary {phase!r}")

    old_up, old_down = upgrade._PHASE_HOOK, downgrade._PHASE_HOOK
    upgrade._PHASE_HOOK = hook
    downgrade._PHASE_HOOK = hook
    try:
        yield
    finally:
        upgrade._PHASE_HOOK = old_up
        downgrade._PHASE_HOOK = old_down


@contextmanager
def slow_search(
    clock: FakeClock, seconds_per_settle: float
) -> Iterator[FakeClock]:
    """Make every settled vertex of the budgeted search cost fake time.

    Arms the settle seam of the *budgeted* bidirectional kernel
    (:data:`repro.graphs.traversal._SETTLE_HOOK`) to advance ``clock`` by
    ``seconds_per_settle`` per settled vertex.  Pair it with a
    ``Budget(seconds=..., clock=clock)`` and the wall-clock deadline
    expires after a precise number of settles on every machine — the
    deterministic stand-in for "this query hit a slow region of the
    graph".  Unbudgeted searches are untouched: the production kernels
    never consult the seam.
    """
    from ..graphs import traversal

    if seconds_per_settle < 0:
        raise ValueError(
            f"seconds_per_settle must be >= 0, got {seconds_per_settle}"
        )

    def hook(_u: int) -> None:
        clock.advance(seconds_per_settle)

    old = traversal._SETTLE_HOOK
    traversal._SETTLE_HOOK = hook
    try:
        yield clock
    finally:
        traversal._SETTLE_HOOK = old


# ----------------------------------------------------------------------
# Parallel-build worker faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerFault:
    """Kill or fail one parallel-build task on selected attempts.

    ``kind`` is ``"raise"`` (the task raises :class:`InjectedFault` in the
    worker; the pool survives) or ``"kill"`` (the worker process exits
    hard via ``os._exit``, poisoning the pool — the ``BrokenProcessPool``
    path).  ``index`` is the position in the landmark list, ``attempts``
    the pool attempts (0-based) on which the fault fires — the default
    ``(0,)`` fails the first attempt and lets retries succeed; use
    ``attempts=range(100)`` to defeat every retry and force the serial
    fallback.
    """

    kind: str
    index: int
    attempts: tuple[int, ...] = (0,)

    def __post_init__(self):
        if self.kind not in ("raise", "kill"):
            raise ValueError(f"unknown worker fault kind {self.kind!r}")
        object.__setattr__(self, "attempts", tuple(self.attempts))

    def fire(self, task_index: int, attempt: int) -> None:
        """Called inside the worker for every task; faults if matched."""
        if task_index != self.index or attempt not in self.attempts:
            return
        if self.kind == "raise":
            raise InjectedFault(
                f"injected worker fault: task {task_index}, "
                f"attempt {attempt}"
            )
        os._exit(17)  # "kill": die without cleanup, as a crash would


@contextmanager
def inject_worker_fault(fault: WorkerFault) -> Iterator[None]:
    """Arm ``fault`` for :func:`~repro.core.build.build_hcl_parallel`.

    The fault object travels to pool workers through the pool initializer,
    so it works under both ``fork`` and ``spawn`` start methods.
    """
    from ..core import build

    old = build._WORKER_FAULT
    build._WORKER_FAULT = fault
    try:
        yield
    finally:
        build._WORKER_FAULT = old


# ----------------------------------------------------------------------
# Sharded-serving faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardFault:
    """Kill, hang, slow down or fail one shard worker's serving RPCs.

    Fires inside the worker's request loop, on the data RPCs
    (``combine``) whose per-replica 0-based ordinal is listed in
    ``requests``.  Targeting: ``shard`` picks the shard; ``replica``
    picks one replica of it (``None`` = every replica).

    ``kind``:

    ``"kill"``
        The worker process exits hard (``os._exit``) — the coordinator
        sees a dead pipe and must fail over / restart.
    ``"hang"``
        The worker sleeps ``seconds`` *before* replying — with
        ``seconds`` above the coordinator's RPC timeout this is a hung
        worker, exercising the deadline/stale-reply-drain machinery
        without leaving a permanently wedged process behind.
    ``"slow"``
        The worker sleeps ``seconds`` (set it below the RPC timeout)
        and then serves normally — degraded-but-alive.
    ``"raise"``
        The RPC fails with :class:`InjectedFault`; the worker survives
        and the coordinator retries.

    ``ops`` selects which worker ops count toward the ordinal and can
    fault — the default keeps the historical behavior (data RPCs only);
    add ``"ping"`` to fault the supervisor's heartbeat probes too.
    """

    kind: str
    shard: int
    replica: int | None = None
    requests: tuple[int, ...] = (0,)
    seconds: float = 1.0
    ops: tuple[str, ...] = ("combine",)

    def __post_init__(self):
        if self.kind not in ("kill", "hang", "slow", "raise"):
            raise ValueError(f"unknown shard fault kind {self.kind!r}")
        object.__setattr__(self, "requests", tuple(self.requests))
        object.__setattr__(self, "ops", tuple(self.ops))

    def fire(self, shard: int, replica: int, ordinal: int) -> None:
        """Called by the worker per data RPC; faults if matched.

        For ``"hang"``/``"slow"`` the sleep happens here (real
        :func:`time.sleep` — the worker is a separate process, so a fake
        clock cannot reach it; keep ``seconds`` small in tests).
        """
        import time

        if shard != self.shard:
            return
        if self.replica is not None and replica != self.replica:
            return
        if ordinal not in self.requests:
            return
        if self.kind == "kill":
            os._exit(23)
        if self.kind == "raise":
            raise InjectedFault(
                f"injected shard fault: shard {shard} replica {replica}, "
                f"request {ordinal}"
            )
        time.sleep(self.seconds)  # "hang" / "slow"


@contextmanager
def inject_shard_fault(fault: ShardFault) -> Iterator[None]:
    """Arm ``fault`` for workers spawned by ``repro.shard`` inside the block.

    The fault object is shipped to each shard worker at spawn time (as a
    process argument), so it also arms workers the coordinator *restarts*
    during the block — and it works under both ``fork`` and ``spawn``.
    Workers already running before the block are unaffected.
    """
    from ..shard import worker as shard_worker

    old = shard_worker._SHARD_FAULT
    shard_worker._SHARD_FAULT = fault
    try:
        yield
    finally:
        shard_worker._SHARD_FAULT = old


# ----------------------------------------------------------------------
# Supervisor heartbeat faults
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeartbeatFault:
    """Drop the fleet supervisor's heartbeat probes to chosen replicas.

    Arms the :data:`repro.shard.supervisor._PING_HOOK` seam (via
    :func:`drop_heartbeats`): when the supervisor is about to ping a
    matching replica on a matching tick, the probe is *dropped* — the
    supervisor observes exactly what a hung worker looks like (a
    deadline-bounded ping that never answers) without wedging a real
    process.  ``ticks`` are the supervisor's 0-based tick ordinals on
    which the drop fires; an unhealthy-looking worker whose fault window
    ends *recovers*, which is how tests prove a worker that answers
    again before the hang deadline is **not** restarted.
    """

    shard: int
    replica: int | None = None
    ticks: tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "ticks", tuple(self.ticks))

    def matches(self, shard: int, replica: int, tick: int) -> bool:
        """Whether the probe to (shard, replica) on ``tick`` is dropped."""
        if shard != self.shard:
            return False
        if self.replica is not None and replica != self.replica:
            return False
        return tick in self.ticks


@contextmanager
def drop_heartbeats(fault: HeartbeatFault) -> Iterator[None]:
    """Arm ``fault`` for :class:`repro.shard.supervisor.FleetSupervisor`
    ticks inside the block (coordinator-side seam; no worker involved)."""
    from ..shard import supervisor as supervisor_mod

    old = supervisor_mod._PING_HOOK
    supervisor_mod._PING_HOOK = fault.matches
    try:
        yield
    finally:
        supervisor_mod._PING_HOOK = old


# ----------------------------------------------------------------------
# On-disk corruption
# ----------------------------------------------------------------------
def corrupt_byte(path: str | Path, offset: int, xor: int = 0xFF) -> None:
    """Flip bits of the byte at ``offset`` (negative offsets count from
    the end), simulating silent media corruption."""
    path = Path(path)
    size = path.stat().st_size
    if offset < 0:
        offset += size
    if not 0 <= offset < size:
        raise ValueError(f"offset {offset} outside file of {size} bytes")
    if not 1 <= xor <= 0xFF:
        raise ValueError(f"xor mask must be in [1, 255], got {xor}")
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ xor]))


def corrupt_segment(ref, offset: int = 0, xor: int = 0xFF) -> None:
    """Flip bits of one byte inside a live shared-memory plan segment.

    ``ref`` is a :class:`~repro.core.shm.SharedPlanRef`; ``offset`` is
    relative to the segment's *data block* (the five canonical arrays —
    negative offsets count from its end), so the flip lands in label
    data, the place where silent corruption would otherwise become a
    bitwise-wrong distance.  The next verifying attach (or on-demand
    ``verify()``) must detect it and raise
    :class:`~repro.errors.PlanIntegrityError`.
    """
    from ..core import shm as shm_mod

    if not 1 <= xor <= 0xFF:
        raise ValueError(f"xor mask must be in [1, 255], got {xor}")
    shared_memory = shm_mod._load_shared_memory()
    if shared_memory is None:  # pragma: no cover - platform guard
        raise RuntimeError("shared memory unsupported on platform")
    try:
        seg = shared_memory.SharedMemory(name=ref.name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        seg = shm_mod._attach_untracked(shared_memory, ref.name)
    try:
        layout = shm_mod._Layout(ref.n, ref.k, ref.entries)
        data_bytes = layout.data_cells * shm_mod._ITEMSIZE
        if offset < 0:
            offset += data_bytes
        if not 0 <= offset < data_bytes:
            raise ValueError(
                f"offset {offset} outside data block of {data_bytes} bytes"
            )
        pos = shm_mod._HEADER_CELLS * shm_mod._ITEMSIZE + offset
        seg.buf[pos] = seg.buf[pos] ^ xor
    finally:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - lingering view
            pass


def truncate_tail(path: str | Path, nbytes: int) -> None:
    """Chop the last ``nbytes`` bytes off a file, simulating a torn write
    (a crash mid-append leaves exactly this)."""
    path = Path(path)
    size = path.stat().st_size
    if not 0 <= nbytes <= size:
        raise ValueError(f"cannot drop {nbytes} bytes of a {size}-byte file")
    with open(path, "r+b") as fh:
        fh.truncate(size - nbytes)
