"""Epoch-based MVCC snapshots of the compiled query plan.

The revision-stamp scheme of :mod:`repro.core.plan` keeps one plan and
asks, on *every* query, "is it still current?" — three counter compares
per call, and any mutation invalidates the plan wholesale, so queries and
landmark reconfigurations cannot truly overlap.  This module promotes the
plan to a chain of immutable, epoch-stamped snapshots with single-writer
MVCC semantics:

* :class:`PlanEpoch` wraps one frozen :class:`~repro.core.plan.QueryPlan`
  with a monotonically increasing ``epoch_id``, the index version it was
  compiled at, and a reader refcount.
* :class:`PlanRegistry` owns the chain.  Readers pin the head with
  :meth:`PlanRegistry.acquire` (a context manager) and then serve
  **without any revalidation** — a pinned epoch is immutable, so the
  per-query stamp compare disappears.  Pinning itself is one refcount
  increment under a mutex; the query loop takes no locks.
* A committing :class:`~repro.core.transaction.IndexTransaction` notifies
  the registry, which recompiles the next plan — *incrementally* when the
  head epoch matches the transaction's base version: only the label rows
  the transaction changed are rebuilt, every other row is shared
  structurally with the prior epoch, and the vector backend's arrays and
  ``G`` are patched rather than rebuilt (DESIGN.md §9) — and atomically
  swaps the head.  Readers that pinned epoch *N*
  keep serving *N*, bitwise-stable, while *N+1* is compiled and
  published.
* A replaced epoch is *retired*; it leaves the live set the moment its
  last reader releases, so the chain cannot grow without bound.

Concurrency contract: **one writer, many readers**.  All mutations go
through the same thread (or are externally serialized); readers may run
on any number of threads.  Readers never touch the authoritative dicts —
they only read frozen plans — so the writer may mutate and recompile
freely while queries are in flight.

Recompilation modes (``PlanRegistry(recompile=...)``):

``"sync"`` (default)
    The committing thread recompiles and publishes before the commit
    returns.  Readers on other threads keep serving their pinned epochs
    throughout; only the writer waits.
``"thread"``
    The commit spawns a background thread; the head swaps when it
    finishes.  A later rollback (or a conflicting commit) cancels the
    in-flight recompile — a cancelled recompile never publishes.
``"deferred"``
    The commit only records what changed; :meth:`PlanRegistry.pump`
    performs the recompile.  This is the mode the deterministic
    interleaving tests script, and what an event-loop deployment would
    drive from its idle callback.

Rollback safety: :meth:`repro.core.transaction.UndoJournal.rollback`
calls :meth:`PlanRegistry.invalidate_pending`, so a transaction that
rolls back can never publish an epoch containing its writes — neither
through its own pending recompile nor through an earlier one that might
have snapshotted the dirty state.  As defense in depth, every recompile
re-checks the index version under the registry lock immediately before
publishing and discards itself on any mismatch.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from ..obs import OBS, SIZE_BOUNDS
from .plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import HCLIndex

__all__ = ["PlanEpoch", "PlanRegistry"]

#: Test seam: when set, called as ``_PUBLISH_HOOK(registry, task)`` after a
#: recompile produced its plan but *before* the publish lock is taken —
#: the exact window where a cancellation must win.  Production never sets
#: it (mirrors ``upgrade._PHASE_HOOK``).
_PUBLISH_HOOK = None


class _RecompileTask:
    """One scheduled recompile: what changed, from which base version."""

    __slots__ = (
        "affected", "edges", "base_version", "grew", "cancelled", "started",
    )

    def __init__(self, affected, base_version, grew, edges=()):
        self.affected = affected  # set[int] of changed label rows, or None
        self.edges = edges  # endpoints of reweighted edges
        self.base_version = base_version  # index version at transaction start
        self.grew = grew  # labeling gained vertices (forces full compile)
        self.cancelled = False
        self.started = False

    def merge(self, affected, grew, edges=()) -> None:
        """Fold a later commit into this not-yet-started task.

        The base version stays the *older* transaction's: every write
        since the head epoch is covered by the union of the touched sets,
        which is exactly what incremental recompilation needs.
        """
        if affected is None or self.affected is None:
            self.affected = None
        else:
            self.affected |= affected
        if edges:
            self.edges = set(self.edges) | set(edges)
        self.grew = self.grew or grew


class PlanEpoch:
    """One immutable, refcounted snapshot in a :class:`PlanRegistry` chain.

    ``plan`` never changes after construction; ``version`` is the
    ``(labeling_rev, highway_rev, graph_rev, n)`` stamp of the index
    state it compiled from.  Use as a context manager (the registry's
    :meth:`~PlanRegistry.acquire` returns it already pinned)::

        with registry.acquire() as epoch:
            epoch.plan.query(s, t)      # no revalidation, ever
    """

    __slots__ = ("plan", "epoch_id", "version", "_registry", "_readers", "_retired")

    def __init__(self, plan: QueryPlan, epoch_id: int, version, registry):
        self.plan = plan
        self.epoch_id = epoch_id
        self.version = version
        self._registry = registry
        self._readers = 0
        self._retired = False

    @property
    def readers(self) -> int:
        """Current number of pins (diagnostics/tests)."""
        return self._readers

    @property
    def retired(self) -> bool:
        """Whether a newer epoch replaced this one as the head."""
        return self._retired

    def acquire(self) -> "PlanEpoch":
        """Add one pin.  Prefer :meth:`PlanRegistry.acquire` for the head."""
        with self._registry._lock:
            self._readers += 1
        return self

    def release(self) -> None:
        """Drop one pin; a retired epoch drains when its last pin goes."""
        registry = self._registry
        with registry._lock:
            if self._readers <= 0:
                raise RuntimeError(
                    f"epoch {self.epoch_id} released more times than acquired"
                )
            self._readers -= 1
            if self._retired and self._readers == 0:
                registry._drop_locked(self)

    def __enter__(self) -> "PlanEpoch":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "retired" if self._retired else "head"
        return (
            f"PlanEpoch(id={self.epoch_id}, readers={self._readers}, {state})"
        )


class PlanRegistry:
    """Single-writer MVCC registry of compiled-plan epochs for one index.

    Create through :meth:`repro.core.index.HCLIndex.epoch_registry` so the
    index and registry stay one-to-one.  Thread safety: ``acquire`` /
    ``release`` / ``head_plan`` may be called from any thread; mutations
    (and therefore ``on_commit`` / ``pump`` / ``refresh``) must come from
    a single writer thread.
    """

    def __init__(self, index: "HCLIndex", recompile: str = "sync"):
        if recompile not in ("sync", "thread", "deferred"):
            raise ValueError(
                f'recompile must be "sync", "thread" or "deferred", '
                f"got {recompile!r}"
            )
        self._index = index
        self.recompile_mode = recompile
        self._lock = threading.Lock()
        self._head: PlanEpoch | None = None
        self._live: dict[int, PlanEpoch] = {}
        self._next_id = 1
        self._pending: _RecompileTask | None = None
        self._pending_thread: threading.Thread | None = None
        # Totals surfaced through service health()/metrics().
        self.publishes = 0
        self.incremental_publishes = 0
        self.cancelled_recompiles = 0
        self.last_recompile_seconds = 0.0
        # How each published plan's G came to be: patched from the prior
        # epoch's, or fully built (reasons: see _publish_locked).
        self.g_patched = 0
        self.g_full = 0
        self.last_g_path: str | None = None
        self.last_rows_patched = 0
        self._listeners: list = []

    # ------------------------------------------------------------------
    # Publish listeners
    # ------------------------------------------------------------------
    def add_publish_listener(self, listener) -> None:
        """Register ``listener(epoch)`` to run after each head swap.

        Listeners fire *outside* the registry lock, on whichever thread
        published (the writer in ``"sync"``/``"deferred"`` modes, the
        recompile thread in ``"thread"`` mode, or a reader for the very
        first epoch).  The sharded serving tier uses this to learn that
        its staged plans are stale; listeners must not call back into
        registry methods that publish.
        """
        with self._lock:
            self._listeners.append(listener)

    def remove_publish_listener(self, listener) -> None:
        """Unregister a listener registered via :meth:`add_publish_listener`."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def _notify_publish(self, epoch: "PlanEpoch") -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(epoch)

    # ------------------------------------------------------------------
    # Version stamps
    # ------------------------------------------------------------------
    def _version(self):
        index = self._index
        return (
            index.labeling._rev,
            index.highway._rev,
            getattr(index.graph, "_rev", 0),
            index.labeling.n,
        )

    @property
    def epoch_id(self) -> int:
        """Id of the current head epoch (0 before the first compile)."""
        head = self._head
        return head.epoch_id if head is not None else 0

    @property
    def live_epochs(self) -> int:
        """Epochs still alive: the head plus retired-but-pinned ones."""
        with self._lock:
            return len(self._live)

    @property
    def head(self) -> PlanEpoch | None:
        """The current head epoch (unpinned; may retire under you)."""
        return self._head

    @property
    def pending(self) -> bool:
        """Whether a scheduled recompile has not yet published."""
        return self._pending is not None

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def acquire(self) -> PlanEpoch:
        """Pin and return the current head epoch (compiling the first).

        The returned epoch is a context manager; leaving the ``with``
        block releases the pin.  The pinned plan is immutable — answers
        stay bitwise-stable however many mutations commit concurrently.
        """
        while True:
            with self._lock:
                head = self._head
                if head is not None:
                    head._readers += 1
                    return head
            # First pin pays the initial compile — outside the lock, so
            # concurrent readers of an already-compiled head never wait.
            self._compile_initial()

    def head_plan(self) -> QueryPlan:
        """The head epoch's plan, unpinned (compiles the first epoch).

        Safe for a single borrowed use on CPython — the plan object stays
        alive through the reference — but does not delay retirement
        accounting; long-lived uses should pin via :meth:`acquire`.
        """
        head = self._head
        if head is None:
            self._compile_initial()
            head = self._head
        return head.plan

    def _compile_initial(self) -> None:
        start = time.perf_counter()
        version = self._version()
        plan = QueryPlan.compile(self._index)
        g_path = "no_prior" if plan.build_landmark_distances() else None
        seconds = time.perf_counter() - start
        published = None
        with self._lock:
            if self._head is None and version == self._version():
                self._publish_locked(
                    plan, version, seconds, False, g_path, plan.n
                )
                published = self._head
            # else: lost a benign race (another reader compiled, or the
            # writer mutated mid-compile) — retry from acquire()/head_plan().
        if published is not None:
            self._notify_publish(published)

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------
    def on_commit(
        self, affected=None, base_version=None, grew=False, edges=()
    ) -> None:
        """A transaction committed: schedule (or run) the next epoch.

        ``affected`` is the set of label rows the transaction changed
        (the registry takes ownership of it), ``base_version`` the index
        version when it opened, ``grew`` whether the labeling gained
        vertices, ``edges`` the endpoints of the edges it reweighted.
        Called by
        :class:`~repro.core.transaction.IndexTransaction`; no-op until a
        first epoch exists — there is nothing to keep current yet.
        """
        with self._lock:
            if self._head is None:
                return
            pending = self._pending
            if pending is not None and not pending.started:
                # Deferred mode: coalesce consecutive commits into one
                # recompile spanning both touched sets.
                pending.merge(affected, grew, edges)
                return
            if pending is not None:
                # An in-flight (threaded) recompile no longer reflects the
                # tip; it must not publish over this commit.
                pending.cancelled = True
                self.cancelled_recompiles += 1
            task = _RecompileTask(affected, base_version, grew, edges)
            self._pending = task
        mode = self.recompile_mode
        if mode == "sync":
            self._run_recompile(task)
        elif mode == "thread":
            thread = threading.Thread(
                target=self._run_recompile, args=(task,),
                name="plan-recompile", daemon=True,
            )
            self._pending_thread = thread
            thread.start()
        # "deferred": wait for pump()

    def pump(self) -> bool:
        """Run the pending deferred recompile now; True if one published."""
        task = self._pending
        if task is None or task.started:
            return False
        return self._run_recompile(task)

    def refresh(self) -> PlanEpoch | None:
        """Synchronously recompile if the head is stale; returns the head.

        The catch-all for mutations that bypassed transactions (direct
        ``upgrade_landmark`` calls, non-transactional ``DynamicHCL``
        paths): a full recompile keyed off the version stamp.
        """
        with self._lock:
            head = self._head
            if head is None or (
                head.version == self._version() and self._pending is None
            ):
                return head
            if self._pending is not None and not self._pending.started:
                self._pending.cancelled = True
                self._pending = None
                self.cancelled_recompiles += 1
        task = _RecompileTask(None, None, False)
        with self._lock:
            self._pending = task
        self._run_recompile(task)
        return self._head

    def republish(self) -> PlanEpoch | None:
        """Force a full recompile and publish a fresh epoch, stale or not.

        The integrity remedy (:class:`~repro.core.auditor.PlanAuditor`,
        :mod:`repro.core.shm` quarantine): when a plan row or its shared
        segment is found corrupt, the fix is a brand-new epoch compiled
        from the authoritative dict labeling — new plan version, new
        segment name — even though the index version never moved, so the
        staleness check in :meth:`refresh` would wave it through.
        Returns the new head (``None`` before the first epoch exists:
        the next reader compiles fresh anyway).
        """
        with self._lock:
            if self._head is None:
                return None
            if self._pending is not None and not self._pending.started:
                self._pending.cancelled = True
                self._pending = None
                self.cancelled_recompiles += 1
            task = _RecompileTask(None, None, False)
            self._pending = task
        self._run_recompile(task)
        return self._head

    def invalidate_pending(self) -> None:
        """Cancel any recompile that has not yet published.

        Called by :meth:`~repro.core.transaction.UndoJournal.rollback`:
        after a rollback, whatever a pending recompile saw (or would see)
        includes writes that no longer exist, so it must never become an
        epoch.  The version re-check at publish time would also catch it;
        this makes the guarantee unconditional and observable.
        """
        with self._lock:
            task = self._pending
            if task is not None:
                task.cancelled = True
                self._pending = None
                self.cancelled_recompiles += 1
                if OBS.enabled:
                    OBS.registry.counter("plan.epoch.cancelled").inc()

    # ------------------------------------------------------------------
    # Recompilation
    # ------------------------------------------------------------------
    def _run_recompile(self, task: _RecompileTask) -> bool:
        task.started = True
        index = self._index
        start = time.perf_counter()
        expected = self._version()
        prior = self._head
        plan = None
        incremental = False
        reason = "grew" if task.grew else "no_prior"
        try:
            if (
                task.affected is not None
                and not task.grew
                and prior is not None
                and task.base_version is not None
                and prior.version == task.base_version
            ):
                plan = QueryPlan.compile_incremental(
                    prior.plan, index, task.affected, task.edges
                )
                incremental = plan is not None
                if not incremental:
                    reason = "holes"
            if plan is None:
                plan = QueryPlan.compile(index)
            # Readers of the new epoch must not pay the G build (the
            # vector kernel's matrix and the exact path's ALT bounds);
            # a patched plan has it already.
            g_path = None
            if plan.build_landmark_distances():
                g_path = plan.g_path or reason
        except Exception:
            # A racing writer can leave the dicts mid-mutation under the
            # "thread" mode; the snapshot is garbage either way.  Drop it —
            # the conflicting commit schedules its own recompile.
            with self._lock:
                if self._pending is task:
                    self._pending = None
                self.cancelled_recompiles += 1
            return False
        seconds = time.perf_counter() - start
        hook = _PUBLISH_HOOK
        if hook is not None:
            hook(self, task)
        with self._lock:
            if task.cancelled:
                return False
            if self._version() != expected:
                # The index moved while we compiled: this snapshot is not
                # the tip.  Discard; the mutation that moved it has (or
                # will) schedule the recompile that is.
                if self._pending is task:
                    self._pending = None
                self.cancelled_recompiles += 1
                if OBS.enabled:
                    OBS.registry.counter("plan.epoch.cancelled").inc()
                return False
            if self._pending is task:
                self._pending = None
            rows = len(task.affected) if incremental else plan.n
            self._publish_locked(
                plan, expected, seconds, incremental, g_path, rows
            )
            published = self._head
        self._notify_publish(published)
        return True

    def _publish_locked(
        self, plan, version, seconds, incremental, g_path, rows
    ) -> None:
        """Swap in ``plan`` as the head epoch and count the publish.

        ``g_path`` is ``"patched"``, a full-build reason (``"hw_moved"``,
        ``"holes"``, ``"grew"``, ``"no_prior"``) or ``None`` without
        numpy; ``rows`` is the number of label rows the publish rebuilt.
        """
        epoch = PlanEpoch(plan, self._next_id, version, self)
        self._next_id += 1
        old = self._head
        self._head = epoch
        self._live[epoch.epoch_id] = epoch
        if old is not None:
            old._retired = True
            if old._readers == 0:
                self._drop_locked(old)
        self.publishes += 1
        if incremental:
            self.incremental_publishes += 1
        self.last_recompile_seconds = seconds
        self.last_g_path = g_path
        self.last_rows_patched = rows
        if g_path == "patched":
            self.g_patched += 1
        elif g_path is not None:
            self.g_full += 1
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("plan.epoch.publishes").inc()
            if incremental:
                reg.counter("plan.epoch.incremental").inc()
            if g_path == "patched":
                reg.counter("plan.epoch.g_patched").inc()
            elif g_path is not None:
                reg.counter("plan.epoch.g_full").inc()
                reg.counter(f"plan.epoch.g_full.{g_path}").inc()
            reg.histogram("plan.epoch.rows_patched", SIZE_BOUNDS).observe(rows)
            reg.gauge("plan.epoch.id").set(epoch.epoch_id)
            reg.gauge("plan.epoch.live").set(len(self._live))

    def _drop_locked(self, epoch: PlanEpoch) -> None:
        self._live.pop(epoch.epoch_id, None)
        # The retired plan's shared-memory segment (if it ever created
        # one for shard fan-out) is unlinked here, at the last
        # possible reader's exit — the refcounted end of the epoch's
        # lifecycle.  Idempotent and crash-safe: the owner-side guard in
        # repro.core.shm makes a second unlink a no-op, and an atexit
        # hook sweeps segments whose workers died before draining.
        epoch.plan.release_shared()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Flat dict for ``HCLService.health()`` / operator dashboards."""
        with self._lock:
            return {
                "epoch": self._head.epoch_id if self._head else 0,
                "live": len(self._live),
                "publishes": self.publishes,
                "incremental": self.incremental_publishes,
                "cancelled": self.cancelled_recompiles,
                "pending": self._pending is not None,
                "last_recompile_seconds": self.last_recompile_seconds,
                "g_patched": self.g_patched,
                "g_full": self.g_full,
                "last_g_path": self.last_g_path,
                "last_rows_patched": self.last_rows_patched,
                "mode": self.recompile_mode,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanRegistry(epoch={self.epoch_id}, live={len(self._live)}, "
            f"mode={self.recompile_mode!r})"
        )
