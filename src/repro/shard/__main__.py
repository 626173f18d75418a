"""Seeded shard-fault sweep: the CI chaos lane's fleet exercise.

Builds a pinned HCL instance, stands up a sharded fleet, and for each
seed injects one fault — a worker fault (kill / hang / slow, random
shard and replica) mid-``query_batch``, or a byte-flipped shared-memory
segment (``corrupt``) the workers must detect at attach time — asserting
the robustness contract:

* every answer is bitwise-equal to the unsharded plan, or a
  budget-expired :class:`~repro.budget.DegradedResult`;
* a corrupted segment is never served: the CRC check catches it on
  attach and the fleet stages over the pickle transport instead
  (``fleet.integrity_fallbacks`` ticks);
* the coordinator never hangs (each batch is wall-clock bounded);
* after the batch, a **supervisor convergence storm** terminates random
  replicas and a :class:`~repro.shard.supervisor.FleetSupervisor` must
  drive the fleet back to ``ok`` within a bounded number of ticks
  (recorded per seed as ``convergence_ticks``);
* shard loss and recovery show up in fleet ``health()``.

Writes the final fleet-health JSON (per-seed outcomes + the last health
snapshot + the metrics registry) to ``--out`` as the CI artifact and
exits non-zero on any contract violation.

Usage::

    python -m repro.shard --shards 4 --rf 2 --seeds 5 --out fleet-health.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .coordinator import ShardedService
from .supervisor import FleetSupervisor
from ..budget import Budget, DegradedResult
from ..core import build_hcl, select_landmarks
from ..core.shm import quarantined_segments
from ..graphs import barabasi_albert
from ..retry import BackoffPolicy
from ..testing import ShardFault, corrupt_segment, inject_shard_fault

#: A hung worker must outlast the RPC timeout to count as hung.
RPC_TIMEOUT = 0.25
HANG_SECONDS = 1.0
SLOW_SECONDS = 0.05
#: Hard wall-clock ceiling per faulted batch: generous against the retry
#: ladder (attempts × replicas × timeout + backoff), tiny against a hang.
BATCH_DEADLINE = 30.0
#: Bounded-convergence budget for the post-batch supervisor storm.
MAX_CONVERGENCE_TICKS = 40

#: Staging a corrupted segment retries each replica over the pickle
#: transport; give the load RPCs room (the query RPC timeout above is
#: deliberately tight to catch hangs).
CORRUPT_RPC_TIMEOUT = 1.0


def _converge_after_storm(svc, srng, outcome) -> bool:
    """Kill replicas, then require supervisor-driven return to ``ok``."""
    everyone = [
        (rset, replica)
        for rset in svc.replica_sets
        for replica in rset.replicas
    ]
    for _, replica in srng.sample(everyone, srng.randint(1, 2)):
        replica.terminate()
    sup = FleetSupervisor(
        svc,
        ping_timeout=2.0,
        hang_ticks=2,
        hysteresis_ticks=2,
        restart_backoff=BackoffPolicy(
            base_delay=0.01, max_delay=0.05, jitter=0.0
        ),
    )
    start = time.monotonic()
    try:
        spent = sup.run_until_ok(MAX_CONVERGENCE_TICKS)
    except RuntimeError:
        outcome["convergence_ticks"] = None
        return False
    outcome["convergence_ticks"] = spent
    outcome["convergence_seconds"] = round(time.monotonic() - start, 3)
    outcome["supervisor_restarts"] = sup.registry.counter(
        "supervisor.restarts"
    ).value
    return svc.health()["status"] == "ok"


def run_sweep(args) -> dict:
    graph = barabasi_albert(args.n, 3, seed=7)
    landmarks = select_landmarks(graph, args.landmarks, policy="degree")
    index = build_hcl(graph, landmarks)
    plan = index.compile_plan()

    rng = random.Random(1234)
    pairs = [
        (rng.randrange(args.n), rng.randrange(args.n))
        for _ in range(args.pairs)
    ]
    oracle = [plan.query(s, t) for s, t in pairs]

    kinds = ["kill", "hang", "slow"]
    if args.corruption:
        kinds.append("corrupt")
    outcomes = []
    failures = 0
    health = {}
    for seed in range(args.seeds):
        srng = random.Random(seed)
        kind = kinds[seed % len(kinds)]
        outcome = {"seed": seed, "fault": {"kind": kind}}
        if kind == "corrupt":
            # Byte-flip the live segment before the fleet attaches it:
            # every worker's CRC check must refuse it, and staging must
            # complete over the pickled plan from its clean heap arrays.
            fault = None
            rpc_timeout = CORRUPT_RPC_TIMEOUT
            shared = plan.shared_buffers()
            if shared is None:
                print(f"seed {seed}: corrupt skipped (no shared memory)")
                outcome.update({"ok": True, "skipped": "no shared memory"})
                outcomes.append(outcome)
                continue
            corrupt_segment(shared.ref, offset=srng.randrange(256))
        else:
            # Replicas see only a handful of data RPCs per batch; firing
            # on the victim's first one lands the fault mid-batch.
            rpc_timeout = RPC_TIMEOUT
            fault = ShardFault(
                kind=kind,
                shard=srng.randrange(args.shards),
                replica=srng.randrange(args.rf),
                requests=(0,),
                seconds=HANG_SECONDS if kind == "hang" else SLOW_SECONDS,
            )
            outcome["fault"].update(
                {
                    "shard": fault.shard,
                    "replica": fault.replica,
                    "request": fault.requests[0],
                }
            )
        with inject_shard_fault(fault) if fault else _noop():
            svc = ShardedService(
                plan,
                nshards=args.shards,
                replication_factor=args.rf,
                rpc_timeout=rpc_timeout,
            )
            try:
                start = time.monotonic()
                got = svc.query_batch(
                    pairs, Budget(seconds=BATCH_DEADLINE / 2)
                )
                elapsed = time.monotonic() - start
                exact = degraded = wrong = 0
                for want, have in zip(oracle, got):
                    if isinstance(have, DegradedResult):
                        degraded += 1
                    elif have == want:
                        exact += 1
                    else:
                        wrong += 1
                hung = elapsed >= BATCH_DEADLINE
                outcome.update(
                    {
                        "elapsed_seconds": round(elapsed, 3),
                        "exact": exact,
                        "degraded": degraded,
                        "wrong": wrong,
                        "hung": hung,
                        "restarts": svc.registry.counter(
                            "fleet.restarts"
                        ).value,
                    }
                )
                ok = not (wrong or hung)
                if kind == "corrupt":
                    fallbacks = svc.registry.counter(
                        "fleet.integrity_fallbacks"
                    ).value
                    outcome["integrity_fallbacks"] = fallbacks
                    outcome["quarantined"] = list(quarantined_segments())
                    ok = ok and fallbacks >= 1 and degraded == 0
                if args.converge:
                    ok = _converge_after_storm(svc, srng, outcome) and ok
                outcome["ok"] = ok
                if not ok:
                    failures += 1
                outcomes.append(outcome)
                health = svc.health()
            finally:
                svc.close()
        converged = outcome.get("convergence_ticks", "-")
        print(
            f"seed {seed}: {kind} -> "
            f"exact={outcome['exact']} degraded={outcome['degraded']} "
            f"wrong={outcome['wrong']} in {outcome['elapsed_seconds']}s "
            f"convergence_ticks={converged}"
        )
    return {
        "config": {
            "shards": args.shards,
            "rf": args.rf,
            "seeds": args.seeds,
            "n": args.n,
            "landmarks": args.landmarks,
            "pairs": args.pairs,
            "corruption": args.corruption,
            "converge": args.converge,
            "max_convergence_ticks": MAX_CONVERGENCE_TICKS,
        },
        "outcomes": outcomes,
        "failures": failures,
        "final_health": health,
    }


def _noop():
    from contextlib import nullcontext

    return nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--rf", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--n", type=int, default=600)
    parser.add_argument("--landmarks", type=int, default=12)
    parser.add_argument("--pairs", type=int, default=400)
    parser.add_argument(
        "--corruption",
        action="store_true",
        help="rotate a byte-flipped shm segment into the fault schedule",
    )
    parser.add_argument(
        "--converge",
        action="store_true",
        help="after each batch, kill replicas and require supervisor "
        "convergence to ok within the tick budget",
    )
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    report = run_sweep(args)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"fleet-health report written to {args.out}")
    if report["failures"]:
        print(f"FAIL: {report['failures']} seed(s) violated the contract")
        return 1
    print(f"OK: {len(report['outcomes'])} seeds, zero hangs, zero wrong answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
