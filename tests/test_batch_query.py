"""Differential tests for batched query serving.

``query_batch`` must agree *exactly* — infinities included — with a
per-pair ``index.query`` / ``index.distance`` loop on seeded random
workloads from :mod:`repro.workloads`, through every execution path:
the dict oracle, the plan's vector kernel, its flat kernel (numpy
patched out), the deduplicated fan-out, and the service/cache layers on
top.
"""

from __future__ import annotations

import math

import pytest

from conftest import path_graph, random_graph
from repro.budget import Budget, DegradedResult
from repro.core import DynamicHCL, QueryPlan, build_hcl, planvec, query_batch
from repro.core.cache import CachedQueryEngine
from repro.core.highway import Highway
from repro.core.index import PLAN_COMPILE_AFTER, HCLIndex
from repro.core.labeling import Labeling
from repro.errors import VertexError
from repro.graphs import Graph
from repro.service import BatchQueryRequest, HCLService
from repro.workloads import random_query_pairs, zipf_query_pairs

INF = math.inf


def indexed_instance(seed: int, k: int | None = None):
    import random

    g = random_graph(seed, n_lo=12, n_hi=30)
    rng = random.Random(seed + 1000)
    if k is None:
        k = rng.randint(1, max(1, g.n // 3))
    landmarks = sorted(rng.sample(range(g.n), k))
    return g, build_hcl(g, landmarks)


@pytest.fixture(params=["numpy", "no-numpy"])
def kernel(request, monkeypatch):
    """Run the test with the vector kernel, then with numpy patched out."""
    if request.param == "numpy":
        if not planvec.numpy_available():
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(planvec, "_NUMPY", None)
        monkeypatch.setattr(planvec, "_NUMPY_CHECKED", True)
    return request.param


def split_instance():
    """Two components with landmarks only in the first: ∞ answers abound."""
    g = Graph(10, unweighted=True)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]:
        g.add_edge(u, v, 1.0)
    for u, v in [(5, 6), (6, 7), (7, 8), (8, 9)]:
        g.add_edge(u, v, 1.0)
    return g, build_hcl(g, [1, 3])


class TestQueryBatchDifferential:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_workload(self, seed):
        g, index = indexed_instance(seed)
        pairs = random_query_pairs(g.n, 120, seed=seed)
        assert query_batch(index, pairs) == [index.query(s, t) for s, t in pairs]

    @pytest.mark.parametrize("seed", range(5))
    def test_zipf_workload_hits_row_path(self, seed):
        g, index = indexed_instance(seed)
        # Heavy skew on a small vertex pool forces endpoint multiplicities
        # past the row threshold, covering the shared-row fast path.
        pairs = zipf_query_pairs(g.n, 300, alpha=1.4, seed=seed)
        assert query_batch(index, pairs) == [index.query(s, t) for s, t in pairs]

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_distances(self, seed):
        g, index = indexed_instance(seed)
        pairs = random_query_pairs(g.n, 80, seed=seed) + [(2, 2), (5, 5)]
        assert query_batch(index, pairs, exact=True) == [
            index.distance(s, t) for s, t in pairs
        ]

    def test_unreachable_pairs_stay_infinite(self):
        g, index = split_instance()
        pairs = [(0, 7), (5, 9), (2, 6), (5, 9), (9, 5), (1, 4)]
        got = query_batch(index, pairs)
        want = [index.query(s, t) for s, t in pairs]
        assert got == want
        assert got[0] == INF and got[1] == INF  # ∞ survives batching
        exact = query_batch(index, pairs, exact=True)
        assert exact == [index.distance(s, t) for s, t in pairs]
        assert exact[0] == INF  # cross-component: unreachable even exactly
        assert exact[1] == 4.0  # within the landmark-free component

    def test_landmark_endpoints(self):
        g, index = indexed_instance(2, k=3)
        lmks = sorted(index.landmarks)
        pairs = [(lmks[0], lmks[1]), (lmks[0], 0), (0, lmks[2]), (lmks[1], lmks[1])]
        assert query_batch(index, pairs) == [index.query(s, t) for s, t in pairs]
        assert query_batch(index, pairs, exact=True) == [
            index.distance(s, t) for s, t in pairs
        ]

    def test_empty_and_invalid_input(self):
        g, index = indexed_instance(0)
        assert query_batch(index, []) == []
        with pytest.raises(VertexError):
            query_batch(index, [(0, g.n)])

    @pytest.mark.parametrize("exact", [False, True])
    def test_non_int_vertex_ids_rejected(self, exact):
        g, index = indexed_instance(0)
        for bad in [(1.0, 2), (0, "1"), (None, 0)]:
            with pytest.raises(VertexError, match="vertex ids"):
                query_batch(index, [(0, 1), bad], exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("max_settled", [None, 0, 25])
    def test_matches_per_pair_dict_loop(self, kernel, exact, max_settled):
        g, index = indexed_instance(3, k=4)
        pairs = zipf_query_pairs(g.n, 300, alpha=1.2, seed=3)
        oracle = build_hcl(g, sorted(index.landmarks))
        oracle.plan_mode = "off"
        plan = index.compile_plan()
        if max_settled is None:
            per_pair = oracle.distance if exact else oracle.query
            want = [per_pair(s, t) for s, t in pairs]
            assert query_batch(index, pairs, exact=exact) == want
            assert query_batch(index, pairs, exact=exact, plan=plan) == want
            assert query_batch(oracle, pairs, exact=exact) == want
            return
        # Budgeted: the dict branch is the per-pair oracle loop, charging
        # constrained label scans in pair order and exact refinements only.
        ba = Budget(max_settled=max_settled)
        bb = Budget(max_settled=max_settled)
        want = query_batch(oracle, pairs, exact=exact, budget=ba)
        got = query_batch(index, pairs, exact=exact, budget=bb, plan=plan)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        assert ba.settled == bb.settled
        degraded = sum(isinstance(v, DegradedResult) for v in got)
        if exact:
            assert degraded > 0  # the budget really cut refinements short
        else:
            assert degraded == 0  # QUERY is the anytime floor
            charged = Budget(max_settled=max_settled)
            seen = set()
            for s, t in pairs:
                if (s, t) not in seen:
                    seen.add((s, t))
                    oracle.query(s, t, charged)
            assert charged.settled == bb.settled

    @pytest.mark.parametrize("seed", range(2))
    def test_plan_query_many_is_the_batch_bounds_kernel(self, kernel, seed):
        g, index = indexed_instance(seed)
        plan = index.compile_plan()
        # Repeats heat endpoints past the flat kernel's g-row threshold.
        pairs = zipf_query_pairs(g.n, 200, alpha=1.4, seed=seed)
        oracle = [index._query_dicts(s, t) for s, t in pairs]
        assert plan.query_many(pairs) == oracle
        assert plan.query_many([]) == []

    def test_batch_compiles_by_the_single_query_rule(self):
        # The ninth single query compiles; so does a batch of nine
        # distinct pairs, and a batch of eight does not.
        g, index = indexed_instance(2, k=3)
        landmarks = sorted(index.landmarks)
        pairs = [(s, t) for s in range(3) for t in range(g.n)]
        small = build_hcl(g, landmarks)
        query_batch(small, pairs[:PLAN_COMPILE_AFTER] * 3)  # dupes not counted
        assert small.plan() is None
        large = build_hcl(g, landmarks)
        query_batch(large, pairs[: PLAN_COMPILE_AFTER + 1])
        assert large.plan() is not None
        # Batches and single queries share one counter per revision.
        mixed = build_hcl(g, landmarks)
        for s, t in pairs[: PLAN_COMPILE_AFTER - 2]:
            mixed.query(s, t)
        query_batch(mixed, pairs[:2])
        assert mixed.plan() is None
        query_batch(mixed, pairs[2:3])
        assert mixed.plan() is not None

    def test_no_landmarks_all_infinite(self):
        g = path_graph(4)
        index = build_hcl(g, [])
        assert query_batch(index, [(0, 3), (1, 2)]) == [INF, INF]


def adversarial_index(labels: dict[int, dict[int, float]]) -> HCLIndex:
    """A 4-vertex index with landmarks {0, 1}, δ_H(0, 1) = 1, and the given
    endpoint labels — distances chosen by hand, not derived from the graph,
    so float-association drift is deterministic rather than seed-dependent.
    """
    g = Graph(4)
    g.add_edge(0, 1, 1.0)
    highway = Highway()
    highway.add_landmark(0)
    highway.add_landmark(1)
    highway.set_distance(0, 1, 1.0)
    labeling = Labeling(4)
    labeling.add_entry(0, 0, 0.0)
    labeling.add_entry(1, 1, 0.0)
    for v, entries in labels.items():
        for r, d in entries.items():
            labeling.add_entry(v, r, d)
    return HCLIndex(g, highway, labeling)


class TestFloatAssociationRegressions:
    """The bitwise guarantee under adversarial float labels.

    ``1e16 + small`` absorbs the small addend while ``small + small +
    1e16`` does not, so any deviation from the serial loop's
    ``(d_i + δ) + d_j`` association (``d_i`` from the smaller label) is a
    visible 1-ulp drift, not a rounding coincidence.
    """

    def test_hot_endpoint_with_larger_label_keeps_serial_association(
        self, kernel
    ):
        # Vertex 2 is hot but holds the *larger* label; the factored row
        # (the vector kernel's G, the flat kernel's memoized g-row) must
        # nevertheless collapse the smaller label L(3), exactly as
        # HCLIndex.query's swap does.
        index = adversarial_index({2: {0: 3.0, 1: 1.0}, 3: {0: 1e16}})
        pairs = [(2, 3), (3, 2)] * 4
        want = [index.query(s, t) for s, t in pairs]
        plan = QueryPlan.compile(index)
        for _ in range(3):  # later batches find the endpoints hot
            assert query_batch(index, pairs, plan=plan) == want
        assert want[0] == (1e16 + 1.0) + 1.0  # == 1e16: small terms absorbed

    def test_reversed_pairs_with_tied_labels_keep_their_orientation(
        self, kernel
    ):
        # Tied label sizes: QUERY's outer loop follows argument order, so
        # query(2, 3) and query(3, 2) legitimately differ by one ulp and
        # the batch must not collapse one orientation onto the other.
        index = adversarial_index({2: {0: 1e16}, 3: {1: 1.0}})
        assert index.query(2, 3) != index.query(3, 2)  # 1-ulp apart
        pairs = [(2, 3), (3, 2), (2, 3)]
        want = [index.query(s, t) for s, t in pairs]
        assert query_batch(index, pairs) == want
        assert query_batch(index, pairs, plan=QueryPlan.compile(index)) == want

    def test_incomplete_highway_row_matches_serial_inf(self, kernel):
        # The serial path reads δ_H defensively (missing cell -> inf); the
        # plan's rows must do the same instead of raising KeyError.
        index = adversarial_index({2: {0: 2.0, 1: 5.0}, 3: {0: 7.0}})
        del index.highway._dist[0][1]  # make row(0) incomplete
        pairs = [(3, 2), (2, 3)] * 3
        want = [index.query(s, t) for s, t in pairs]
        plan = QueryPlan.compile(index)
        for _ in range(3):
            assert query_batch(index, pairs, plan=plan) == want

    def test_constrained_batch_never_snapshots_the_graph(
        self, kernel, monkeypatch
    ):
        g, index = indexed_instance(1)
        plan = index.compile_plan()

        def boom(self):
            raise AssertionError("adjacency built for a constrained batch")

        monkeypatch.setattr(QueryPlan, "_build_adjacency", boom)
        pairs = random_query_pairs(g.n, 30, seed=3)
        index.plan_mode = "off"
        want = [index.query(s, t) for s, t in pairs]
        assert query_batch(index, pairs, plan=plan) == want


class TestServiceBatch:
    def make_service(self, seed: int = 1):
        import random

        g = random_graph(seed, n_lo=12, n_hi=24)
        rng = random.Random(seed)
        landmarks = sorted(rng.sample(range(g.n), 3))
        return g, HCLService.build(g, landmarks)

    def test_matches_per_pair_submissions(self):
        g, svc = self.make_service()
        pairs = random_query_pairs(g.n, 60, seed=2)
        batched = svc.query_batch(pairs)
        reference = HCLService.build(g, sorted(svc.landmarks))
        from repro.service import ConstrainedDistanceRequest

        assert batched == [
            reference.submit(ConstrainedDistanceRequest(s, t)) for s, t in pairs
        ]
        assert svc.stats.queries == len(pairs)
        assert isinstance(svc.audit[-1].request, BatchQueryRequest)

    def test_batch_populates_the_query_cache(self):
        g, svc = self.make_service(3)
        pairs = random_query_pairs(g.n, 40, seed=4)
        svc.query_batch(pairs)
        misses_after_batch = svc.metrics()["counters"]["cache.misses"]
        # Replaying the same batch is pure cache hits …
        svc.query_batch(pairs)
        metrics = svc.metrics()["counters"]
        assert metrics["cache.misses"] == misses_after_batch
        assert metrics["cache.hits"] >= len(pairs)
        # … and a per-pair submit also hits.
        from repro.service import ConstrainedDistanceRequest

        s, t = pairs[0]
        svc.submit(ConstrainedDistanceRequest(s, t))
        assert svc.metrics()["counters"]["cache.misses"] == misses_after_batch

    def test_mutation_invalidates_batch_answers(self):
        g, svc = self.make_service(5)
        pairs = random_query_pairs(g.n, 30, seed=6)
        before = svc.query_batch(pairs)
        from repro.service import AddLandmarkRequest

        new_lmk = next(v for v in range(g.n) if v not in svc.landmarks)
        svc.submit(AddLandmarkRequest(new_lmk))
        after = svc.query_batch(pairs)
        fresh = DynamicHCL.build(g, sorted(svc.landmarks))
        assert after == [fresh.query(s, t) for s, t in pairs]
        # adding a landmark can only improve constrained distances
        assert all(a <= b for a, b in zip(after, before))

    def test_exact_batch_through_service(self):
        g, svc = self.make_service(7)
        pairs = random_query_pairs(g.n, 30, seed=8)
        engine = CachedQueryEngine(DynamicHCL.build(g, sorted(svc.landmarks)))
        assert svc.query_batch(pairs, exact=True) == [
            engine.distance(s, t) for s, t in pairs
        ]
