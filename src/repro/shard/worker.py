"""Shard worker process: serves the whole compiled plan over a pipe.

A worker is a plain loop over a ``multiprocessing`` pipe speaking a tiny
framed RPC protocol: requests are ``(req_id, op, payload)`` tuples,
replies are ``(req_id, ok, payload)``.  The ``req_id`` echo lets the
coordinator discard stale replies after a timeout — a worker that was
merely slow does not poison the next request on the same pipe.

State is **versioned**: the worker holds ``{version: QueryPlan}`` and
every data RPC names the version it wants, so an epoch broadcast can
stage version ``V+1`` on every shard while in-flight batches keep reading
``V`` — the coordinator flips its own version pointer only after every
shard confirmed the stage (atomic cutover), then garbage-collects ``V``
with ``drop`` RPCs.  A worker asked for a version it does not hold
answers an error, never a wrong-version result.

Ops::

    ping                      -> liveness + held versions + counters
    load    (version, plan)   -> stage a plan under that version
    drop    (version,)        -> forget a staged version
    combine (version, pairs)  -> QUERY(s, t) for each pair
    shutdown                  -> reply, then exit

Every worker holds the *whole* plan, so ``combine`` needs no rows from
other shards: it answers through :meth:`QueryPlan.query_many`, the same
bounds kernel an in-process batch uses (vector with numpy, flat
without), bitwise-equal to ``plan.query(s, t)``.  ``load`` takes either
the plan's :class:`~repro.core.shm.SharedPlanRef` — the worker attaches
the segment with its CRC check on, copies the canonical arrays out and
detaches — or the pickled plan itself (no shared memory, restarts, and
the integrity fallback).  Either way the worker builds the plan's ``G``
at load, so no batch pays for it.

Fault injection: :data:`_SHARD_FAULT` is the seam
:func:`repro.testing.faults.inject_shard_fault` arms; the coordinator
ships it to each worker at spawn, and the worker consults it once per
RPC named in the fault's ``ops`` (``combine`` by default; add
``"ping"`` to fault heartbeat probes) — kill / hang / slow / raise.
Always ``None`` in production.
"""

from __future__ import annotations

from array import array

from ..core.plan import QueryPlan
from ..core.shm import SharedPlanRef

__all__ = ["shard_worker_main"]

#: Test seam (see repro.testing.faults.inject_shard_fault).  Read by the
#: *coordinator* process at spawn time and shipped to the worker as a
#: process argument, so it survives restarts and the spawn start method.
_SHARD_FAULT = None


def _attach_plan(ref: SharedPlanRef) -> QueryPlan:
    """Attach the plan's segment (CRC-checked), copy it out, detach.

    The copy keeps the plan valid after the owning epoch retires and
    unlinks the segment.
    """
    attachment = ref.attach()
    try:
        n, k, *views = attachment.arrays()
        arrays = []
        for view in views:
            out = array(view.format)
            out.frombytes(view.cast("B"))
            arrays.append(out)
    finally:
        attachment.close()
    return QueryPlan(n, k, *arrays)


def shard_worker_main(conn, shard_id: int, replica_id: int, fault=None) -> None:
    """Entry point of a shard worker process (top-level: spawn-picklable)."""
    plans: dict[int, QueryPlan] = {}
    served = 0
    data_ordinal = 0
    while True:
        try:
            req_id, op, payload = conn.recv()
        except (EOFError, OSError):
            return  # coordinator went away: nothing left to serve
        try:
            if fault is not None and op in getattr(fault, "ops", ("combine",)):
                ordinal = data_ordinal
                data_ordinal += 1
                fault.fire(shard_id, replica_id, ordinal)
            if op == "combine":
                version, pairs = payload
                plan = plans.get(version)
                if plan is None:
                    raise KeyError(
                        f"shard {shard_id} replica {replica_id} does not "
                        f"hold version {version}"
                    )
                result = plan.query_many(pairs)
                served += len(result)
            elif op == "ping":
                result = {
                    "shard": shard_id,
                    "replica": replica_id,
                    "versions": sorted(plans),
                    "served": served,
                }
            elif op == "load":
                version, plan = payload
                if isinstance(plan, SharedPlanRef):
                    plan = _attach_plan(plan)
                plan.build_landmark_distances()
                plans[version] = plan
                result = version
            elif op == "drop":
                plans.pop(payload[0], None)
                result = payload[0]
            elif op == "shutdown":
                conn.send((req_id, True, None))
                return
            else:
                raise ValueError(f"unknown shard op {op!r}")
        except SystemExit:
            raise
        except BaseException as exc:  # noqa: BLE001 - reply, don't die
            try:
                conn.send((req_id, False, f"{type(exc).__name__}: {exc}"))
            except (OSError, BrokenPipeError):
                return
            continue
        try:
            conn.send((req_id, True, result))
        except (OSError, BrokenPipeError):
            return
