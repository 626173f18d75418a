"""Chaos-lane acceptance for the sharded serving tier.

The ISSUE contract: a 4-shard fleet with ``replication_factor=2``,
killing any single worker mid-``query_batch``, still returns answers
bitwise-equal to the unsharded plan (or budget-expired
:class:`~repro.budget.DegradedResult`\\ s), with zero coordinator hangs
across 5 seeded fault schedules — and the loss/recovery is visible in
fleet ``health()`` and the obs counters.

Run with ``pytest -m chaos``; excluded from the default (tier-1) lane.
"""

import random
import time

import pytest

from conftest import random_graph
from repro.budget import Budget, DegradedResult
from repro.core import build_hcl, select_landmarks
from repro.retry import BackoffPolicy
from repro.shard import FleetSupervisor, ShardedService
from repro.testing import (
    HeartbeatFault,
    ShardFault,
    corrupt_segment,
    drop_heartbeats,
    inject_shard_fault,
)

pytestmark = pytest.mark.chaos

NSHARDS = 4
RF = 2
RPC_TIMEOUT = 0.25
#: Wall-clock ceiling proving "the coordinator never hangs": generous
#: against the retry ladder, tiny against a 1 s worker hang gone wrong.
BATCH_DEADLINE = 30.0


@pytest.fixture(scope="module")
def fixture_plan():
    g = random_graph(99, n_lo=160, n_hi=200)
    lmks = select_landmarks(g, 8, policy="degree")
    plan = build_hcl(g, lmks).compile_plan()
    rng = random.Random(4321)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(250)]
    oracle = [plan.query(s, t) for s, t in pairs]
    return plan, pairs, oracle


@pytest.mark.parametrize("seed", range(5))
def test_single_worker_kill_mid_batch_keeps_answers_bitwise(
    fixture_plan, seed
):
    plan, pairs, oracle = fixture_plan
    rng = random.Random(seed)
    # Each replica sees only a couple of data RPCs per batch (each shard's
    # pairs go out as one combine per replica), so the schedule varies *which*
    # worker dies and fires on that worker's first data RPC — a kill that
    # always actually lands mid-batch.
    fault = ShardFault(
        kind="kill",
        shard=rng.randrange(NSHARDS),
        replica=rng.randrange(RF),
        requests=(0,),
    )
    with inject_shard_fault(fault):
        with ShardedService(
            plan,
            nshards=NSHARDS,
            replication_factor=RF,
            rpc_timeout=RPC_TIMEOUT,
        ) as svc:
            start = time.monotonic()
            got = svc.query_batch(pairs, Budget(seconds=BATCH_DEADLINE / 2))
            elapsed = time.monotonic() - start
            assert elapsed < BATCH_DEADLINE  # the coordinator never hangs
            assert len(got) == len(pairs)
            for want, have in zip(oracle, got):
                if isinstance(have, DegradedResult):
                    assert have.is_upper_bound  # sound, never below truth
                else:
                    assert have == want  # bitwise-equal to the oracle
            # The kill and the heal are observable: the restart counters
            # ticked and post-batch auto-restart refilled the fleet.
            health = svc.health()
            assert health["fleet.restarts"] >= 1
            assert (
                svc.registry.counter(f"shard.{fault.shard}.restarts").value
                >= 1
            )
            assert health["replicas_alive"] == NSHARDS * RF
            assert health["status"] == "ok"


@pytest.mark.parametrize("kind", ["hang", "slow", "raise"])
def test_nonfatal_faults_fail_over_without_wrong_answers(fixture_plan, kind):
    plan, pairs, oracle = fixture_plan
    fault = ShardFault(
        kind=kind,
        shard=1,
        replica=0,
        requests=(0, 1),
        seconds=1.0 if kind == "hang" else 0.05,
    )
    with inject_shard_fault(fault):
        with ShardedService(
            plan,
            nshards=NSHARDS,
            replication_factor=RF,
            rpc_timeout=RPC_TIMEOUT,
        ) as svc:
            start = time.monotonic()
            got = svc.query_batch(pairs, Budget(seconds=BATCH_DEADLINE / 2))
            assert time.monotonic() - start < BATCH_DEADLINE
            wrong = sum(
                1
                for want, have in zip(oracle, got)
                if not isinstance(have, DegradedResult) and have != want
            )
            assert wrong == 0
            if kind == "hang":
                timeouts = svc.registry.counter(
                    f"shard.{fault.shard}.rpc.timeouts"
                ).value
                assert timeouts >= 1  # the hang was seen and survived


# ----------------------------------------------------------------------
# Supervisor convergence under seeded storms (ISSUE 9 acceptance)
# ----------------------------------------------------------------------
#: Bounded-convergence budget: the supervisor must report ``ok`` within
#: this many ticks of the storm ending, every seed, every schedule.
MAX_CONVERGENCE_TICKS = 40


def _fresh_plan(seed, n_lo=60, n_hi=80, k=4, npairs=100):
    """A private plan per test: corruption quarantine is process-global
    and sticky, so corrupting the shared module fixture would poison
    every later test."""
    g = random_graph(seed, n_lo=n_lo, n_hi=n_hi)
    lmks = select_landmarks(g, k, policy="degree")
    plan = build_hcl(g, lmks).compile_plan()
    rng = random.Random(seed + 1)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(npairs)]
    oracle = [plan.query(s, t) for s, t in pairs]
    return plan, pairs, oracle


def _assert_bitwise_or_degraded(oracle, got):
    assert len(got) == len(oracle)
    for want, have in zip(oracle, got):
        if isinstance(have, DegradedResult):
            assert have.is_upper_bound
        else:
            assert have == want


@pytest.mark.parametrize("seed", range(5))
def test_kill_and_hang_storm_converges_within_bounded_ticks(
    fixture_plan, seed
):
    """Kill several replicas and drop heartbeats to another: the
    supervisor (not a query) must find every casualty, restart it from
    the pinned slices, and return the fleet to ``ok`` within the tick
    budget — then the healed fleet answers bitwise."""
    plan, pairs, oracle = fixture_plan
    rng = random.Random(7000 + seed)
    with ShardedService(
        plan,
        nshards=NSHARDS,
        replication_factor=RF,
        rpc_timeout=RPC_TIMEOUT,
    ) as svc:
        everyone = [(s, r) for s in range(NSHARDS) for r in range(RF)]
        victims = rng.sample(everyone, rng.randint(1, 3))
        for s, r in victims:
            svc._sets[s].replicas[r].terminate()
        hang = HeartbeatFault(
            shard=rng.randrange(NSHARDS),
            replica=rng.randrange(RF),
            ticks=(0, 1),
        )
        sup = FleetSupervisor(
            svc,
            ping_timeout=2.0,
            hang_ticks=2,  # the 2-tick drop window trips a hang-restart
            hysteresis_ticks=2,
            restart_backoff=BackoffPolicy(
                base_delay=0.01, max_delay=0.05, jitter=0.0
            ),
        )
        start = time.monotonic()
        with drop_heartbeats(hang):
            spent = sup.run_until_ok(MAX_CONVERGENCE_TICKS)
        assert time.monotonic() - start < BATCH_DEADLINE  # never hangs
        assert spent <= MAX_CONVERGENCE_TICKS
        restarts = sup.registry.counter("supervisor.restarts").value
        assert restarts >= len(victims)
        health = svc.health()
        assert health["status"] == "ok"
        assert health["supervisor"]["status"] == "ok"
        assert health["replicas_alive"] == NSHARDS * RF
        # The revived workers serve the re-broadcast epoch bitwise.
        _assert_bitwise_or_degraded(oracle, svc.query_batch(pairs))


def test_corrupted_segment_is_never_served_and_stage_falls_back():
    """A byte-flipped shm segment is detected *on attach* by every
    worker; the fleet stages over the pickle transport instead and the
    batch completes bitwise — corruption visible, answers untouched."""
    from repro.core.shm import is_quarantined

    plan, pairs, oracle = _fresh_plan(101)
    shared = plan.shared_buffers()
    if shared is None:
        pytest.skip("shared memory unavailable")
    corrupt_segment(shared.ref, offset=64, xor=0x20)
    with ShardedService(
        plan, nshards=2, replication_factor=2, rpc_timeout=1.0
    ) as svc:
        got = svc.query_batch(pairs)
        assert got == oracle  # bitwise: pickle slices carry clean arrays
        assert svc.registry.counter("fleet.integrity_fallbacks").value >= 1
        assert is_quarantined(shared.ref.name)
        assert svc.health()["status"] == "ok"
    plan.release_shared()


@pytest.mark.parametrize("seed", range(5))
def test_full_storm_kill_hang_corrupt_converges(seed):
    """The whole menu at once — worker kills, dropped heartbeats, and a
    byte-flipped segment — with the supervisor's integrity check wired
    to the owner's CRC verify.  Required arc: corruption detected,
    segment quarantined and republished, fleet back to ``ok`` within the
    tick budget, answers bitwise-or-degraded, nothing hangs."""
    plan, pairs, oracle = _fresh_plan(200 + seed)
    shared = plan.shared_buffers()
    if shared is None:
        pytest.skip("shared memory unavailable")
    rng = random.Random(900 + seed)
    with ShardedService(
        plan, nshards=2, replication_factor=2, rpc_timeout=1.0
    ) as svc:
        assert svc.query_batch(pairs) == oracle  # healthy warm-up

        def segment_clean():
            # The owner's remedy built in: shared_buffers() republishes
            # a fresh segment once the poisoned one is quarantined, so
            # the check fails exactly once and then heals.
            fresh = plan.shared_buffers()
            return fresh is not None and fresh.verify()

        corrupt_segment(shared.ref, offset=rng.randrange(256), xor=0xFF)
        victims = rng.sample([(0, 0), (0, 1), (1, 0), (1, 1)], 2)
        for s, r in victims:
            svc._sets[s].replicas[r].terminate()
        hang = HeartbeatFault(shard=rng.randrange(2), ticks=(0,))
        sup = FleetSupervisor(
            svc,
            ping_timeout=2.0,
            hang_ticks=2,
            hysteresis_ticks=2,
            integrity_check=segment_clean,
            integrity_every=1,
            restart_backoff=BackoffPolicy(
                base_delay=0.01, max_delay=0.05, jitter=0.0
            ),
        )
        start = time.monotonic()
        with drop_heartbeats(hang):
            spent = sup.run_until_ok(MAX_CONVERGENCE_TICKS)
        assert time.monotonic() - start < BATCH_DEADLINE
        assert spent <= MAX_CONVERGENCE_TICKS
        assert sup.registry.counter("supervisor.integrity_failures").value >= 1
        assert segment_clean()  # republished segment passes its CRCs
        health = svc.health()
        assert health["status"] == "ok"
        assert health["replicas_alive"] == 4
        _assert_bitwise_or_degraded(oracle, svc.query_batch(pairs))
    plan.release_shared()
