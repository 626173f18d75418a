"""``repro.shard`` — sharded, replicated serving of compiled query plans.

One process cannot serve millions of users.  This package serves a
compiled :class:`~repro.core.plan.QueryPlan` from a fleet of worker
processes — every worker holds the whole plan, attached from the plan's
shared-memory segment or unpickled — and fronts it with a
fault-tolerant scatter-gather coordinator:

* :mod:`repro.shard.worker` — the worker process: a versioned-state RPC
  loop whose ``combine`` op answers through the same kernel as an
  in-process batch (:meth:`~repro.core.plan.QueryPlan.query_many`);
* :mod:`repro.shard.replication` — per-replica process lifecycle,
  pipes, and circuit breakers;
* :mod:`repro.shard.coordinator` — :class:`ShardedService`: routing by
  source vertex range, deadline-aware retry with jittered backoff,
  replica failover, in-call restart from the pinned epoch, graceful
  degradation, fleet ``health()``, and atomic epoch cutover;
* :mod:`repro.shard.supervisor` — :class:`FleetSupervisor`: out-of-band
  heartbeats that catch dead *and hung* workers between queries,
  backoff-damped proactive restarts with epoch re-broadcast, and a
  hysteresis-filtered verdict rolled into fleet ``health()``.

``python -m repro.shard`` runs a seeded shard-fault sweep (the CI chaos
lane's fleet exercise, including supervisor convergence and segment
corruption) and writes the fleet-health JSON artifact.
"""

from .coordinator import ShardedService
from .supervisor import FleetSupervisor

__all__ = [
    "FleetSupervisor",
    "ShardedService",
]
