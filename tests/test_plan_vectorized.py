"""Differential acceptance for the vectorized zero-copy plan backend.

The :class:`~repro.core.planvec.VectorBackend` answers with the *same
bits* as the interpreted flat kernel (and hence the dict oracle) — the
factored ``(d_outer + δ) + d_inner`` association is the one the flat
g-row fast path already uses, and numpy float64 arithmetic performs the
identical IEEE-754 operations.  Everything here is a differential sweep
against those two oracles: constrained/exact answers, degraded-budget
parity, budget charge sequences, epoch-pin stability, and the graceful
pure-python fallback when numpy is absent.

The shared-memory transport gets its own lifecycle battery: ref/attach
round trips, idempotent exactly-once unlink (including through epoch
retirement, the owner-exit backstop, and a worker crash mid-batch), and
the fleet's transport choice.
"""

from __future__ import annotations

import math
import pickle
import random
from array import array

import pytest

from conftest import grid_graph, path_graph, random_graph
from repro.budget import Budget, DegradedResult
from repro.core import DynamicHCL, build_hcl, query_batch
from repro.core import planvec
from repro.core.plan import QueryPlan
from repro.core.shm import shm_available
from repro.errors import DeadlineExceeded
from repro.graphs import Graph
from repro.graphs.csr import CSRGraph
from repro.shard import ShardedService
from repro.workloads import random_query_pairs, zipf_query_pairs

INF = math.inf

needs_numpy = pytest.mark.skipif(
    not planvec.numpy_available(), reason="numpy unavailable"
)
needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable"
)


def float_graph(seed: int, n_lo: int = 15, n_hi: int = 40) -> Graph:
    """Connected-ish random graph with irregular float weights."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    g = Graph(n)
    for v in range(1, n):  # spanning tree keeps most pairs reachable
        g.add_edge(v, rng.randrange(v), rng.uniform(0.1, 3.7))
    extra = {(u, v) for u in range(n) for v in range(u + 1, n)}
    extra -= {tuple(sorted((u, v))) for u in range(n) for v, _ in g.neighbors(u)}
    for u, v in rng.sample(sorted(extra), min(len(extra), 2 * n)):
        g.add_edge(u, v, rng.uniform(0.1, 3.7))
    return g


def same_float(a: float, b: float) -> bool:
    """Bitwise equality with nan == nan (inf - inf label arithmetic)."""
    return a == b or (a != a and b != b)


def all_pairs(n: int, stride: int = 1):
    return [(s, t) for s in range(0, n, stride) for t in range(0, n, stride)]


def compiled(g: Graph, landmarks):
    index = build_hcl(g, landmarks)
    index.plan_mode = "off"  # the dict oracle stays a dict
    return index, QueryPlan.compile(index)


# ----------------------------------------------------------------------
# Differential sweeps: vec vs flat vs dict, bitwise
# ----------------------------------------------------------------------
@needs_numpy
class TestVectorDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_query_bitwise_int_graphs(self, seed):
        g = random_graph(seed, n_lo=12, n_hi=30, weighted=True)
        rng = random.Random(seed + 500)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 3)))
        index, plan = compiled(g, landmarks)
        vec = plan.vector_backend()
        for s, t in all_pairs(g.n):
            flat = plan.query(s, t)
            assert same_float(vec.query(s, t), flat)
            assert same_float(flat, index.query(s, t))

    @pytest.mark.parametrize("seed", range(4))
    def test_query_bitwise_float_graphs(self, seed):
        g = float_graph(seed)
        rng = random.Random(seed + 500)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 3)))
        index, plan = compiled(g, landmarks)
        vec = plan.vector_backend()
        for s, t in all_pairs(g.n):
            flat = plan.query(s, t)
            assert same_float(vec.query(s, t), flat)
            assert same_float(flat, index.query(s, t))

    def test_query_many_native_floats(self):
        g = float_graph(7, n_lo=25, n_hi=35)
        _, plan = compiled(g, [1, 5, 9])
        vec = plan.vector_backend()
        pairs = zipf_query_pairs(g.n, 300, alpha=1.3, seed=7)
        got = vec.query_many(pairs)
        assert got == [plan.query(s, t) for s, t in pairs]
        assert all(type(v) is float for v in got)
        assert vec.query_many([]) == []

    def test_unreachable_pairs_stay_infinite(self):
        g = Graph(8, unweighted=True)
        for u, v in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]:
            g.add_edge(u, v, 1.0)
        _, plan = compiled(g, [1, 2])
        vec = plan.vector_backend()
        for s, t in all_pairs(8):
            assert same_float(vec.query(s, t), plan.query(s, t))
        assert vec.query(0, 5) == INF

    def test_empty_landmark_set(self):
        g = path_graph(6)
        index = build_hcl(g, [0])
        index.plan_mode = "off"
        index.highway.remove_landmark(0)
        for v in range(6):
            index.labeling.clear_vertex(v)
        plan = QueryPlan.compile(index)
        vec = plan.vector_backend()
        for s, t in all_pairs(6):
            assert same_float(vec.query(s, t), plan.query(s, t))
        assert vec.query_many([(0, 5), (1, 4)]) == [INF, INF]

    def test_distance_vector_backend_parity(self):
        # The batch path's hand-off: a vector bound refined by distance().
        g = float_graph(11, n_lo=25, n_hi=35)
        index, plan = compiled(g, [2, 7, 13])
        vec = plan.vector_backend()
        for s, t in all_pairs(g.n, stride=2):
            assert same_float(
                plan.distance(s, t, ub=vec.query(s, t)), index.distance(s, t)
            )


def patch_numpy_out(monkeypatch):
    """Force the flat kernel: plans see no numpy from here on."""
    monkeypatch.setattr(planvec, "_NUMPY", None)
    monkeypatch.setattr(planvec, "_NUMPY_CHECKED", True)


# ----------------------------------------------------------------------
# query_batch kernels
# ----------------------------------------------------------------------
class TestBatchBackends:
    @needs_numpy
    def test_constrained_batch_parity(self, monkeypatch):
        g = float_graph(3, n_lo=25, n_hi=35)
        index, plan = compiled(g, [1, 8, 17])
        pairs = zipf_query_pairs(g.n, 400, alpha=1.3, seed=3)
        want = query_batch(index, pairs, plan="off")
        assert query_batch(index, pairs, plan=plan) == want  # vector
        patch_numpy_out(monkeypatch)
        assert query_batch(index, pairs, plan=plan) == want  # flat

    @needs_numpy
    def test_exact_batch_parity(self):
        g = float_graph(4, n_lo=25, n_hi=35)
        index, plan = compiled(g, [1, 8, 17])
        pairs = random_query_pairs(g.n, 120, seed=4)
        want = query_batch(index, pairs, exact=True, plan="off")
        got = query_batch(index, pairs, exact=True, plan=plan)
        assert got == want


# ----------------------------------------------------------------------
# Budget parity: degraded results, strict raises, charge sequences
# ----------------------------------------------------------------------
@needs_numpy
class TestBudgetParity:
    @pytest.mark.parametrize("max_settled", [0, 1, 5, 10_000])
    def test_degraded_results_identical(self, max_settled):
        g = float_graph(3, n_lo=35, n_hi=35)
        rng = random.Random(42)
        landmarks = sorted(rng.sample(range(g.n), 4))
        index, plan = compiled(g, landmarks)
        for s, t in all_pairs(g.n, stride=4):
            ra = index.distance(s, t, budget=Budget(max_settled=max_settled))
            rb = plan.distance(s, t, budget=Budget(max_settled=max_settled))
            assert type(ra) is type(rb)
            assert same_float(float(ra), float(rb))
            if isinstance(ra, DegradedResult):
                assert ra.is_upper_bound == rb.is_upper_bound
                assert ra.reason == rb.reason

    def test_strict_raises_identically(self):
        g = grid_graph(6, 6)
        index, plan = compiled(g, [0, 35])
        with pytest.raises(DeadlineExceeded):
            index.distance(1, 34, budget=Budget(max_settled=1), strict=True)
        with pytest.raises(DeadlineExceeded):
            plan.distance(1, 34, budget=Budget(max_settled=1), strict=True)

    def test_budgeted_batch_parity(self):
        g = float_graph(5, n_lo=30, n_hi=30)
        index, plan = compiled(g, [1, 8, 17])
        pairs = random_query_pairs(g.n, 60, seed=5)
        want = query_batch(
            index, pairs, exact=True, budget=Budget(max_settled=25),
            plan="off",
        )
        got = query_batch(
            index, pairs, exact=True, budget=Budget(max_settled=25),
            plan=plan,
        )
        assert [float(v) for v in want] == [float(v) for v in got]
        assert [type(v) for v in want] == [type(v) for v in got]

    def test_constrained_batch_charges_identically(self, monkeypatch):
        g = grid_graph(5, 5)
        index, plan = compiled(g, [0, 24])
        pairs = random_query_pairs(g.n, 40, seed=9)
        ba, bb = Budget(max_settled=10_000), Budget(max_settled=10_000)
        query_batch(index, pairs, budget=bb, plan=plan)  # vector
        patch_numpy_out(monkeypatch)
        query_batch(index, pairs, budget=ba, plan=plan)  # flat
        assert ba.settled == bb.settled > 0


# ----------------------------------------------------------------------
# Epoch pins: vectorized serving from a retired snapshot stays stable
# ----------------------------------------------------------------------
@needs_numpy
class TestEpochStability:
    def test_pinned_vector_answers_survive_commits(self):
        g = random_graph(3, n_lo=12, n_hi=18)
        dyn = DynamicHCL.build(g, sorted({1, g.n // 2}))
        registry = dyn.enable_plan_epochs(recompile="sync")
        pairs = all_pairs(g.n, stride=2)
        epoch1 = registry.acquire()
        before = epoch1.plan.vector_backend().query_many(pairs)
        assert before == [epoch1.plan.query(s, t) for s, t in pairs]
        dyn.add_landmark(g.n - 2)
        dyn.remove_landmark(1)
        # The pinned snapshot still answers with its original bits...
        assert epoch1.plan.vector_backend().query_many(pairs) == before
        # ...while the new head tracks the mutated dict oracle.
        head = registry.acquire()
        after = head.plan.vector_backend().query_many(pairs)
        assert after == [dyn.query(s, t) for s, t in pairs]
        head.release()
        epoch1.release()


# ----------------------------------------------------------------------
# numpy-less operation: everything degrades to the flat kernel
# ----------------------------------------------------------------------
class TestNoNumpyFallback:
    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        patch_numpy_out(monkeypatch)

    def test_backend_resolution(self, no_numpy):
        assert not planvec.numpy_available()
        assert planvec.default_backend() == "flat"

    def test_vector_backend_returns_none(self, no_numpy):
        g = path_graph(6)
        _, plan = compiled(g, [0, 5])
        assert plan.vector_backend() is None

    def test_query_batch_falls_back_to_flat(self, no_numpy):
        g = float_graph(6, n_lo=20, n_hi=25)
        index, plan = compiled(g, [1, 7])
        pairs = zipf_query_pairs(g.n, 150, alpha=1.2, seed=6)
        want = query_batch(index, pairs, plan="off")
        # The flat kernel is the answer-identical portable path.
        assert query_batch(index, pairs, plan=plan) == want
        assert query_batch(index, pairs, exact=True, plan=plan) == (
            query_batch(index, pairs, exact=True, plan="off")
        )

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        monkeypatch.setattr(planvec, "_NUMPY", None)
        monkeypatch.setattr(planvec, "_NUMPY_CHECKED", False)
        assert not planvec.numpy_available()
        assert planvec.default_backend() == "flat"


# ----------------------------------------------------------------------
# Shared-memory lifecycle
# ----------------------------------------------------------------------
@needs_shm
class TestSharedMemoryLifecycle:
    def test_ref_attach_round_trip(self):
        g = float_graph(9, n_lo=25, n_hi=25)
        index, plan = compiled(g, [2, 7, 13])
        shared = plan.shared_buffers()
        assert shared is not None
        assert plan.shared_buffers() is shared  # memoized, one segment
        # The ref is the thing that crosses process boundaries: tiny.
        assert len(pickle.dumps(shared.ref)) < 256
        att = shared.ref.attach()
        try:
            clone = QueryPlan(*att.arrays())
            for s, t in all_pairs(g.n, stride=2):
                assert same_float(clone.query(s, t), plan.query(s, t))
            del clone
        finally:
            att.close()
        att.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            att.arrays()
        plan.release_shared()

    @needs_numpy
    def test_attached_vector_backend_parity(self):
        g = float_graph(10, n_lo=25, n_hi=25)
        _, plan = compiled(g, [1, 6, 11])
        shared = plan.shared_buffers()
        att = shared.ref.attach()
        try:
            vec = planvec.VectorBackend(att.arrays())
            for s, t in all_pairs(g.n, stride=3):
                assert same_float(vec.query(s, t), plan.query(s, t))
            del vec
        finally:
            att.close()
            plan.release_shared()

    def test_unlink_exactly_once(self):
        g = path_graph(8)
        _, plan = compiled(g, [0, 7])
        shared = plan.shared_buffers()
        shared.unlink()
        shared.unlink()
        plan.release_shared()  # third caller, still a no-op
        assert shared.unlinked
        assert shared.unlink_calls == 1
        # A retired segment is never resurrected for this plan.
        assert plan.shared_buffers() is None

    def test_attach_after_unlink_raises(self):
        g = path_graph(8)
        _, plan = compiled(g, [0, 7])
        shared = plan.shared_buffers()
        ref = shared.ref
        plan.release_shared()
        with pytest.raises(FileNotFoundError):
            ref.attach()

    def test_epoch_retirement_unlinks_exactly_once(self):
        g = random_graph(5, n_lo=10, n_hi=16)
        dyn = DynamicHCL.build(g, [1, g.n - 2])
        registry = dyn.enable_plan_epochs(recompile="sync")
        shared = registry.head_plan().shared_buffers()
        assert shared is not None and not shared.unlinked
        # Publishing a new epoch retires the unpinned head; retirement
        # drains to zero readers immediately and must unlink the segment.
        dyn.add_landmark(2)
        assert shared.unlinked
        assert shared.unlink_calls == 1

    def test_owner_exit_backstop_unlinks(self):
        from repro.core import shm

        g = path_graph(8)
        _, plan = compiled(g, [0, 7])
        shared = plan.shared_buffers()
        # Simulate the owner exiting while a worker crash left the
        # segment unreleased: the atexit sweep is the backstop.
        shm._unlink_owned()
        assert shared.unlinked
        assert shared.unlink_calls == 1
        plan.release_shared()  # later explicit release stays a no-op
        assert shared.unlink_calls == 1

    def test_worker_crash_mid_batch_still_unlinks_once(self):
        from repro.shard import ShardedService
        from repro.testing import ShardFault, inject_shard_fault

        g = random_graph(17, n_lo=100, n_hi=120)
        _, plan = compiled(g, sorted({1, g.n // 2, g.n - 2}))
        pairs = random_query_pairs(g.n, 120, seed=17)
        oracle = [plan.query(s, t) for s, t in pairs]
        fault = ShardFault(kind="kill", shard=0, replica=0, requests=(0,))
        with inject_shard_fault(fault):
            with ShardedService(
                plan, nshards=2, replication_factor=2, rpc_timeout=0.5
            ) as svc:
                got = svc.query_batch(pairs)
                assert got == oracle
                assert svc.health()["fleet.restarts"] >= 1
        shared = plan.shared_buffers()
        assert shared is not None  # fleet shutdown never unlinks: owner does
        plan.release_shared()
        plan.release_shared()
        assert shared.unlink_calls == 1


# ----------------------------------------------------------------------
# Fleet transport: shm refs when available, pickled plans otherwise
# ----------------------------------------------------------------------
class TestTransportCounters:
    def test_env_forces_pickle_transport(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_SHM", "0")
        g = float_graph(15, n_lo=30, n_hi=30)
        _, plan = compiled(g, [2, 12, 22])
        assert plan.shared_buffers() is None
        with ShardedService(plan, nshards=1, rpc_timeout=5.0) as svc:
            assert svc.registry.counter("fleet.transport.pickle").value == 1
            assert svc.registry.counter("fleet.transport.shm").value == 0

    @needs_shm
    def test_fleet_stages_over_shm_when_available(self):
        g = float_graph(16, n_lo=25, n_hi=25)
        _, plan = compiled(g, [1, 6, 11])
        pairs = random_query_pairs(g.n, 60, seed=5)
        with ShardedService(plan, nshards=1, rpc_timeout=5.0) as svc:
            assert svc.registry.counter("fleet.transport.shm").value == 1
            assert svc.query_batch(pairs) == [
                plan.query(s, t) for s, t in pairs
            ]
        plan.release_shared()


# ----------------------------------------------------------------------
# Typecode portability: every flat array is 8 bytes per cell everywhere
# ----------------------------------------------------------------------
class TestTypecodePortability:
    """The LLP64 sweep: ``array("l")`` is 4 bytes on 64-bit Windows, so
    every flat-layer array now pins ``"q"``/``"d"`` — 8-byte cells on
    every platform, which is also what the shm segment layout assumes."""

    def test_csr_arrays_are_8_byte(self):
        g = float_graph(2, n_lo=20, n_hi=25)
        csr = CSRGraph(g)
        clone = pickle.loads(pickle.dumps(csr))
        for c in (csr, clone):
            assert c._offsets.typecode == "q"
            assert c._offsets.itemsize == 8
            assert c._targets.typecode == "q"
            assert c._targets.itemsize == 8

    def test_plan_canonical_arrays_are_8_byte(self):
        g = float_graph(2, n_lo=20, n_hi=25)
        _, plan = compiled(g, [3, 9])
        for p in (plan, pickle.loads(pickle.dumps(plan))):
            n, k, ids, offsets, slots, dists, hw = p.canonical_arrays()
            for arr, code in (
                (ids, "q"), (offsets, "q"), (slots, "q"),
                (dists, "d"), (hw, "d"),
            ):
                assert array(code, arr).itemsize == 8
                assert memoryview(arr).itemsize == 8
