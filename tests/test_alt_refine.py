"""Differential tests for the plan's ALT-certified, ALT-pruned refinement.

``QueryPlan.refine`` must return the identical float
``bounded_bidirectional_distance_masked`` returns on the same graph and
landmark mask — on unit, integer and float weights, on incrementally
patched plans (including ``-1`` slot holes), with ``UB = inf`` and with
``UB == LB`` ties — from both sources of landmark distances (the numpy
``G`` matrix and the label rows).  Pair by pair, the pruned search
settles no more vertices than the unpruned one.
"""

from __future__ import annotations

import math
import random

import pytest

from conftest import grid_graph, path_graph, random_graph
from repro import obs
from repro.core import DynamicHCL, QueryPlan, build_hcl, planvec
from repro.core import plan as plan_mod
from repro.graphs import Graph, erdos_renyi
from repro.graphs.traversal import bounded_bidirectional_distance_masked

INF = math.inf


@pytest.fixture(params=["numpy", "no-numpy"])
def source(request, monkeypatch):
    """Run the test with ``G`` columns, then with label-row columns."""
    if request.param == "numpy":
        if not planvec.numpy_available():
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(planvec, "_NUMPY", None)
        monkeypatch.setattr(planvec, "_NUMPY_CHECKED", True)
    return request.param


@pytest.fixture(params=["gated", "always"])
def prune(request, monkeypatch):
    """Prune at the default LB/UB ratio, then on every uncertified pair."""
    if request.param == "always":
        monkeypatch.setattr(plan_mod, "ALT_PRUNE_RATIO", 0.0)
    return request.param


def float_graph(seed: int, n: int = 40) -> Graph:
    rng = random.Random(seed)
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, rng.randrange(v), rng.uniform(0.1, 3.7))
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.uniform(0.1, 3.7))
    return g


def plain(plan, graph, s, t, ub):
    """The unpruned dict kernel's answer and settled count."""
    with obs.observed() as reg:
        got = bounded_bidirectional_distance_masked(graph, s, t, ub, plan.mask)
    return got, reg.snapshot()["counters"].get("search.settled", 0)


def check(plan, graph, pairs):
    """Bitwise answers and settled <= plain on every pair; returns stats."""
    certified = pruned = 0
    for s, t in pairs:
        ub = plan.query(s, t)
        best, settled, _edges, _pushes, cert = plan._search(s, t, ub)
        want, plain_settled = plain(plan, graph, s, t, ub)
        assert best == want or (best != best and want != want), (s, t)
        assert plan.refine(s, t, ub) == best or best != best
        assert settled <= plain_settled, (s, t, settled, plain_settled)
        if plan._integral and plan._alt(s, t, ub) == (None, None):
            assert settled == plain_settled  # a weak bound: unpruned
        certified += cert
        pruned += settled < plain_settled
    return certified, pruned


def non_landmark_pairs(plan, n, count, seed):
    rng = random.Random(seed)
    free = [v for v in range(n) if not plan.mask[v]]
    return [tuple(rng.sample(free, 2)) for _ in range(count)]


class TestDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_unit_weights(self, source, prune, seed):
        g = grid_graph(9, 9) if seed % 2 else erdos_renyi(60, 2.5, seed=seed)
        rng = random.Random(seed)
        plan = QueryPlan.compile(build_hcl(g, sorted(rng.sample(range(g.n), 6))))
        certified, pruned = check(plan, g, non_landmark_pairs(plan, g.n, 150, seed))
        assert plan._integral
        assert certified + pruned > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_weights(self, source, prune, seed):
        g = random_graph(seed, n_lo=30, n_hi=60, weighted=True)
        rng = random.Random(seed + 7)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, 8)))
        plan = QueryPlan.compile(build_hcl(g, landmarks))
        check(plan, g, non_landmark_pairs(plan, g.n, 150, seed))
        assert plan._integral

    @pytest.mark.parametrize("seed", range(4))
    def test_float_weights_run_the_unpruned_search(self, source, seed):
        g = float_graph(seed)
        plan = QueryPlan.compile(build_hcl(g, [0, 13, 27]))
        pairs = non_landmark_pairs(plan, g.n, 150, seed)
        for s, t in pairs:
            ub = plan.query(s, t)
            _, settled, _, _, certified = plan._search(s, t, ub)
            assert not certified
            assert settled == plain(plan, g, s, t, ub)[1]
        assert not plan._integral
        assert plan._alt_src is None  # never touched G
        check(plan, g, pairs)

    def test_incremental_plans_with_holes(self, source, prune):
        g = random_graph(21, n_lo=60, n_hi=60, weighted=True)
        rng = random.Random(5)
        dyn = DynamicHCL.build(g, sorted(rng.sample(range(g.n), 9)))
        registry = dyn.enable_plan_epochs()
        for step in range(6):
            plan = registry.head_plan()
            check(plan, g, non_landmark_pairs(plan, g.n, 60, step))
            victim = rng.choice(sorted(dyn.landmarks))
            dyn.remove_landmark(victim)
            dyn.add_landmark(rng.choice(
                [v for v in range(g.n) if v not in dyn.landmarks]
            ))
        plan = registry.head.plan
        assert plan.label_offsets is None  # an incremental plan
        dyn.remove_landmark(sorted(dyn.landmarks)[0])
        plan = registry.head.plan
        assert -1 in plan.landmark_ids
        check(plan, g, non_landmark_pairs(plan, g.n, 100, 99))

    def test_disconnected_subgraph_and_infinite_bound(self, source, prune):
        # Two components; landmarks only in the first.  Cross pairs have
        # UB = inf and a landmark reaching one endpoint only (certified);
        # pairs inside the second have no landmark distances at all.
        g = Graph(40, unweighted=True)
        for v in range(19):
            g.add_edge(v, v + 1)
        for v in range(20, 39):
            g.add_edge(v, v + 1)
        g.add_edge(25, 35)
        plan = QueryPlan.compile(build_hcl(g, [5, 12]))
        assert plan.query(3, 30) == INF
        assert plan._search(3, 30, INF) == (INF, 0, 0, 0, True)
        pairs = [(s, t) for s in range(0, 40, 3) for t in range(1, 40, 4)
                 if s != t and not plan.mask[s] and not plan.mask[t]]
        check(plan, g, pairs)
        assert plan._search(21, 38, INF)[0] == 8.0

    def test_tie_between_bounds_certifies(self, source):
        g = path_graph(11)
        plan = QueryPlan.compile(build_hcl(g, [0, 5]))
        ub = plan.query(2, 8)  # through landmark 5: exact
        assert ub == 6.0  # and LB = |d(0, 2) - d(0, 8)| = 6
        assert plan._search(2, 8, ub) == (6.0, 0, 0, 0, True)
        check(plan, g, [(2, 8), (1, 9), (6, 9)])


class TestLandmarkDistances:
    def test_label_rows_give_the_numpy_columns(self):
        if not planvec.numpy_available():
            pytest.skip("numpy unavailable")
        g = random_graph(4, n_lo=50, n_hi=50, weighted=True)
        plan = QueryPlan.compile(build_hcl(g, [3, 17, 29, 41]))
        ids, G, _ = plan._alt_source()
        for j, r in enumerate(ids):
            slot = plan.slot_of[r]
            numpy_col = G[:, j].tolist()
            plan._alt_src = (plan.landmark_ids.tolist(), None, {})
            assert plan._alt_column(slot) == numpy_col
            assert [plan._landmark_row(v)[slot] for v in range(g.n)] == numpy_col
            plan._alt_src = None
            plan._alt_source()

    def test_registry_builds_g_before_publishing(self):
        if not planvec.numpy_available():
            pytest.skip("numpy unavailable")
        g = random_graph(8, n_lo=30, n_hi=30, weighted=True)
        dyn = DynamicHCL.build(g, [1, 10, 20])
        registry = dyn.enable_plan_epochs()
        assert registry.head_plan()._vec._G is not None
        dyn.add_landmark(5)
        assert registry.head.plan._vec._G is not None


class TestObservedPath:
    def test_counters_come_from_the_serving_kernel(self):
        g = grid_graph(12, 12)
        index = build_hcl(g, [0, 11, 66, 132, 143])
        index.compile_plan()
        pairs = [(s, (7 * s + 5) % g.n) for s in range(1, 140, 3)]
        want = [index.distance(s, t) for s, t in pairs]
        plan = index.plan()
        settled = certified = 0
        for s, t in pairs:
            out = plan._search(s, t, plan.query(s, t))
            settled += out[1]
            certified += out[4]
        with obs.observed() as reg:
            got = [index.distance(s, t) for s, t in pairs]
        assert got == want
        c = reg.snapshot()["counters"]
        refinements = sum(
            1 for s, t in pairs
            if s != t and not plan.mask[s] and not plan.mask[t]
        )
        assert c["search.calls"] == refinements
        assert c["search.settled"] == settled
        assert c["search.certified"] == certified > 0


class TestAdjacencyPatch:
    def test_patched_adjacency_equals_full_compile(self):
        g = random_graph(31, n_lo=80, n_hi=80, weighted=True)
        rng = random.Random(2)
        dyn = DynamicHCL.build(g, sorted(rng.sample(range(g.n), 12)))
        registry = dyn.enable_plan_epochs()
        registry.head_plan()._compile_adjacency()
        patched = holes = 0
        for step in range(16):
            if step % 2:
                dyn.add_landmark(rng.choice(
                    [v for v in range(g.n) if v not in dyn.landmarks]
                ))
            else:
                dyn.remove_landmark(rng.choice(sorted(dyn.landmarks)))
            plan = registry.head.plan
            if plan.label_offsets is not None:  # a full compile
                plan._compile_adjacency()
                continue
            patched += 1
            holes += -1 in plan.landmark_ids
            full = QueryPlan.compile(dyn.index)
            assert plan._adj == full._compile_adjacency()
            assert plan._integral == full._integral
        assert patched >= 8 and holes >= 4

    def test_edge_reweight_patches_adjacency(self):
        g = random_graph(32, n_lo=40, n_hi=40, weighted=True)
        dyn = DynamicHCL.build(g, [2, 9, 30])
        registry = dyn.enable_plan_epochs()
        registry.head_plan()._compile_adjacency()
        edges = list(g.edges())
        for step, (u, v, w) in enumerate(edges[:6]):
            # Integer reweights keep ALT on; the last one is fractional.
            new = w + 1.5 if step == 5 else w + 2.0
            dyn.apply_batch(edge_updates=[(u, v, new)])
            plan = registry.head.plan
            assert plan.label_offsets is None  # an incremental epoch
            patched = plan._adj
            assert patched is not None  # no compile on the read path
            integral = plan._integral
            assert patched == plan._build_adjacency()
            assert integral == plan._integral == (step < 5)
