"""Tier-1 tests for the sharded serving tier:
:class:`~repro.shard.ShardedService` scatter-gather over whole-plan
workers (bitwise equality with and without numpy, epoch cutover,
admission, request validation, health, lifecycle).

Fault-schedule chaos coverage (kills mid-batch, hang/slow workers) lives
in ``test_sharded_chaos.py`` under the ``chaos`` marker.
"""

import random
from bisect import bisect_right

import pytest

from conftest import grid_graph, random_graph
from repro import DynamicHCL
from repro.budget import Budget, DegradedResult
from repro.core import build_hcl, planvec, query_batch, select_landmarks
from repro.errors import Overloaded, RequestError
from repro.service import AddLandmarkRequest, HCLService
from repro.shard import ShardedService
from repro.shard.coordinator import shard_of


def make_plan(seed=11, n_lo=30, n_hi=60, k=4):
    g = random_graph(seed, n_lo=n_lo, n_hi=n_hi)
    lmks = select_landmarks(g, min(k, g.n), policy="degree")
    return g, build_hcl(g, lmks).compile_plan()


def sample_pairs(n, count, seed=5):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# ----------------------------------------------------------------------
# Routing arithmetic: pairs go to the shard owning their source
# ----------------------------------------------------------------------
class TestPartition:
    def test_shard_of_closed_form_matches_bisect_exhaustively(self):
        for n in (1, 2, 3, 7, 20, 66, 100, 200, 333):
            for nshards in range(1, min(n, 9) + 1):
                bounds = [i * n // nshards for i in range(nshards + 1)]
                assert bounds[0] == 0 and bounds[-1] == n
                for v in range(n):
                    want = bisect_right(bounds, v) - 1
                    assert shard_of(v, n, nshards) == want, (n, nshards, v)

    def test_rejects_bad_shard_counts(self):
        _, plan = make_plan()
        for nshards in (0, -1):
            with pytest.raises(RequestError):
                ShardedService(plan, nshards=nshards)
        # More shards than vertices is no longer an error: workers hold
        # the whole plan, so the extra shards just own no sources.
        n = plan.n
        owners = {shard_of(v, n, n + 3) for v in range(n)}
        assert owners <= set(range(n + 3)) and len(owners) == n


# ----------------------------------------------------------------------
# ShardedService scatter-gather
# ----------------------------------------------------------------------
class TestShardedService:
    @pytest.mark.parametrize("nshards,rf", [(1, 1), (2, 1), (3, 2)])
    def test_batch_is_bitwise_equal_to_the_unsharded_plan(self, nshards, rf):
        _, plan = make_plan(seed=19)
        pairs = sample_pairs(plan.n, 120, seed=7)
        oracle = [plan.query(s, t) for s, t in pairs]
        with ShardedService(
            plan, nshards=nshards, replication_factor=rf, rpc_timeout=5.0
        ) as svc:
            assert svc.query_batch(pairs) == oracle
            s, t = pairs[0]
            assert svc.query(s, t) == oracle[0]

    @pytest.mark.parametrize("numpy_present", [True, False])
    def test_batch_is_bitwise_with_and_without_numpy(
        self, monkeypatch, numpy_present
    ):
        # Workers fork from this process, so the patch reaches them and
        # they answer on the flat kernel; REPRO_NO_NUMPY covers spawn.
        if not numpy_present:
            monkeypatch.setattr(planvec, "_NUMPY", None)
            monkeypatch.setattr(planvec, "_NUMPY_CHECKED", True)
            monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        elif not planvec.numpy_available():
            pytest.skip("numpy unavailable")
        _, plan = make_plan(seed=53)
        # Repeated endpoints drive the flat kernel's g-row memo.
        pairs = sample_pairs(plan.n, 40, seed=23) * 4
        oracle = [plan.query(s, t) for s, t in pairs]
        with ShardedService(plan, nshards=2, rpc_timeout=5.0) as svc:
            assert svc.query_batch(pairs) == oracle

    def test_pairs_route_by_source_vertex_range(self):
        _, plan = make_plan(seed=61)
        half = plan.n // 2
        pairs = [(s, t) for s, t in sample_pairs(plan.n, 80, seed=31)
                 if s < half and plan._rows[s] and plan._rows[t]]
        assert pairs
        with ShardedService(plan, nshards=2, rpc_timeout=5.0) as svc:
            assert svc.query_batch(pairs) == [
                plan.query(s, t) for s, t in pairs
            ]
            calls = [
                svc.registry.counter(f"shard.{i}.rpc.calls").value
                for i in range(2)
            ]
        assert calls[0] >= 1 and calls[1] == 0

    def test_budget_charges_like_the_in_process_batch(self):
        g = random_graph(67, n_lo=30, n_hi=60)
        index = build_hcl(g, select_landmarks(g, 4, policy="degree"))
        plan = index.compile_plan()
        # Distinct pairs: the in-process batch charges each distinct pair
        # once, the fleet every pair in order (no dedup).
        pairs = list(dict.fromkeys(sample_pairs(g.n, 120, seed=37)))
        local = Budget(max_settled=10**9)
        want = query_batch(index, pairs, budget=local, plan=plan)
        with ShardedService(plan, nshards=3, rpc_timeout=5.0) as svc:
            fleet = Budget(max_settled=10**9)
            assert svc.query_batch(pairs, fleet) == want
        assert fleet.settled == local.settled > 0

    def test_holey_incremental_plan_is_served_bitwise(self):
        g = grid_graph(5, 6)
        dyn = DynamicHCL.build(g, [0, 5, 14, 22, 29])
        registry = dyn.enable_plan_epochs()
        dyn.query(0, 1)  # compile epoch 1
        pairs = sample_pairs(g.n, 80, seed=29)
        with ShardedService.from_registry(registry, nshards=2) as svc:
            dyn.remove_landmark(14)  # incremental patch: -1 hole in the ids
            plan = registry.head_plan()
            assert -1 in plan.landmark_ids  # precondition: actually holey
            assert svc.query_batch(pairs) == [
                plan.query(s, t) for s, t in pairs
            ]
            assert svc.health()["version"] == 2

    def test_killed_replica_fails_over_and_heals(self):
        _, plan = make_plan(seed=23)
        pairs = sample_pairs(plan.n, 60, seed=9)
        oracle = [plan.query(s, t) for s, t in pairs]
        with ShardedService(
            plan, nshards=2, replication_factor=2, rpc_timeout=5.0
        ) as svc:
            svc._sets[0].replicas[0].terminate()  # simulated worker death
            assert svc.query_batch(pairs) == oracle  # failover, no gaps
            health = svc.health()  # post-batch auto-restart healed it
            assert health["replicas_alive"] == health["replicas_total"] == 4
            assert health["fleet.restarts"] >= 1
            assert svc.registry.counter("shard.0.restarts").value >= 1

    def test_exhausted_budget_degrades_instead_of_hanging(self):
        _, plan = make_plan(seed=29)
        pairs = sample_pairs(plan.n, 40, seed=11)
        with ShardedService(plan, nshards=2, rpc_timeout=5.0) as svc:
            budget = Budget(max_settled=1)  # dries up almost immediately
            got = svc.query_batch(pairs, budget)
            assert len(got) == len(pairs)
            degraded = [r for r in got if isinstance(r, DegradedResult)]
            assert degraded  # budget ran dry mid-batch
            for r in degraded:
                assert r.is_upper_bound
            assert svc.health()["fleet.degraded"] >= len(degraded)

    def test_admission_sheds_with_overloaded(self):
        _, plan = make_plan(seed=31)
        with ShardedService(plan, nshards=1, max_inflight=1) as svc:
            svc._admit()  # occupy the only slot
            try:
                with pytest.raises(Overloaded):
                    svc.query(0, 1)
                assert svc.health()["fleet.shed"] == 1
            finally:
                svc._release()
            assert svc.query(0, 1) == plan.query(0, 1)

    def test_out_of_range_pair_rejected(self):
        _, plan = make_plan(seed=37)
        with ShardedService(plan, nshards=2) as svc:
            with pytest.raises(RequestError):
                svc.query(0, plan.n)
            with pytest.raises(RequestError):
                svc.query(-1, 0)

    def test_non_int_vertex_ids_rejected(self):
        _, plan = make_plan(seed=59)
        with ShardedService(plan, nshards=2) as svc:
            for bad in [(1.0, 2), ("1", 2), (0, None)]:
                with pytest.raises(RequestError, match="query pair"):
                    svc.query_batch([(0, 1), bad])
            assert svc.query(0, 1) == plan.query(0, 1)

    def test_epoch_publish_propagates_with_atomic_cutover(self):
        g = grid_graph(5, 6)
        dyn = DynamicHCL.build(g, [0, 29])
        registry = dyn.enable_plan_epochs()
        pairs = sample_pairs(g.n, 60, seed=13)
        with ShardedService.from_registry(registry, nshards=2) as svc:
            assert svc.health()["version"] == 1
            before = registry.head_plan()
            assert svc.query_batch(pairs) == [
                before.query(s, t) for s, t in pairs
            ]
            dyn.add_landmark(14)  # sync recompile publishes epoch 2
            assert svc._stale  # the publish listener fired
            after = registry.head_plan()
            assert svc.query_batch(pairs) == [
                after.query(s, t) for s, t in pairs
            ]
            health = svc.health()
            assert health["version"] == 2
            assert not health["stale"]
            assert health["fleet.publishes"] == 2

    def test_service_shard_helper_serves_the_live_index(self):
        g = grid_graph(4, 5)
        svc = HCLService.build(g, [0, 19])
        fleet = svc.shard(nshards=2)
        try:
            pairs = sample_pairs(g.n, 40, seed=17)
            assert fleet.query_batch(pairs) == [
                svc._dyn.query(s, t) for s, t in pairs
            ]
            svc.submit(AddLandmarkRequest(7))
            assert fleet.query_batch(pairs) == [
                svc._dyn.query(s, t) for s, t in pairs
            ]
            assert fleet.health()["version"] == 2
        finally:
            fleet.close()

    def test_health_shape(self):
        _, plan = make_plan(seed=41)
        with ShardedService(plan, nshards=2, replication_factor=2) as svc:
            svc.query_batch(sample_pairs(plan.n, 10, seed=19))
            health = svc.health()
            assert health["status"] == "ok"
            assert health["replicas_total"] == 4
            assert health["inflight"] == 0
            assert set(health["shards"]) == {"0", "1"}
            for snap in health["shards"].values():
                assert snap["alive"] == 2
                assert snap["breaker_open"] is False
                assert len(snap["replicas"]) == 2
                for rsnap in snap["replicas"]:
                    assert rsnap["alive"] and rsnap["pid"]
                    assert rsnap["stale_replies"] == 0
                    assert rsnap["breaker"] == "closed"
                    assert rsnap["breaker_retry_after"] == 0.0
            assert health["fleet.batches"] == 1
            assert health["fleet.queries"] == 10

    def test_more_shards_than_vertices_serves(self):
        g = grid_graph(1, 3)
        plan = build_hcl(g, [1]).compile_plan()
        pairs = [(s, t) for s in range(3) for t in range(3)]
        with ShardedService(plan, nshards=4) as svc:
            assert svc.query_batch(pairs) == [
                plan.query(s, t) for s, t in pairs
            ]

    def test_close_is_idempotent_and_queries_after_close_are_rejected(self):
        _, plan = make_plan(seed=43)
        svc = ShardedService(plan, nshards=2)
        svc.close()
        svc.close()
        with pytest.raises(RequestError):
            svc.query(0, 1)

    def test_constructor_validation(self):
        _, plan = make_plan(seed=47)
        with pytest.raises(RequestError):
            ShardedService(plan, nshards=2, replication_factor=0)
        with pytest.raises(RequestError):
            ShardedService(plan, nshards=2, rpc_timeout=0.0)
        with pytest.raises(RequestError):
            ShardedService(plan, nshards=2, max_inflight=0)


# ----------------------------------------------------------------------
# Stale-reply drain bound (stubbed pipe, no processes)
# ----------------------------------------------------------------------
class _BabblingConn:
    """A pipe stand-in that answers with whatever req_ids it was fed."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def poll(self, timeout):
        return bool(self.replies)

    def recv(self):
        return self.replies.pop(0)


def _stub_replica(replies):
    from repro.breaker import CircuitBreaker
    from repro.shard.replication import Replica

    replica = Replica(0, 0, CircuitBreaker())
    replica.alive = True
    replica._conn = _BabblingConn(replies)
    return replica


class TestStaleReplyDrain:
    def test_stale_replies_are_drained_counted_and_skipped(self):
        from repro.shard.replication import Replica  # noqa: F401

        # req_id will be 1; two stale replies precede the real one.
        replica = _stub_replica(
            [(-7, True, "old"), (0, True, "older"), (1, True, "fresh")]
        )
        seen = []
        replica.on_stale = lambda n: seen.append(n)
        assert replica.call("combine", None, 1.0) == "fresh"
        assert replica.stale_replies == 2
        assert seen == [1, 1]

    def test_babbling_worker_cannot_pin_the_drain_loop(self):
        """A worker feeding stale replies faster than the deadline
        drains must hit the drain bound, not spin until the timeout."""
        from repro.shard.replication import _MAX_STALE_REPLIES, ReplicaTimeout

        # Infinite babble: every reply has a wrong req_id.
        class _Endless(_BabblingConn):
            def poll(self, timeout):
                return True

            def recv(self):
                return (999, True, "stale")

        replica = _stub_replica([])
        replica._conn = _Endless([])
        with pytest.raises(ReplicaTimeout, match="babbling"):
            replica.call("combine", None, 60.0)  # deadline alone won't save us
        assert replica.stale_replies == _MAX_STALE_REPLIES
