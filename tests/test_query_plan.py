"""Differential tests for the compiled query plan (``repro.core.plan``).

The contract is *bitwise* equality, not approximation: every answer the
plan path produces — constrained ``QUERY``, exact ``distance``,
``query_batch``, budgeted/degraded variants — must be the identical
float the authoritative dict path produces, on integer- and
float-weighted graphs, before and after interleaved landmark
reconfigurations.
"""

from __future__ import annotations

import math
import pickle
import random

import pytest

from conftest import grid_graph, path_graph, random_graph
from repro.budget import Budget, DegradedResult
from repro.core import DynamicHCL, QueryPlan, build_hcl, query_batch
from repro.core.cache import CachedQueryEngine
from repro.core.index import PLAN_COMPILE_AFTER
from repro.core.plan import SearchWorkspace
from repro.core.transaction import IndexTransaction
from repro.errors import DeadlineExceeded, RequestError
from repro.graphs import Graph
from repro.workloads import random_query_pairs, zipf_query_pairs

INF = math.inf


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


def twin_indexes(g: Graph, landmarks):
    """The same index twice: one pinned to dicts, one with a compiled plan."""
    dict_index = build_hcl(g, landmarks)
    dict_index.plan_mode = "off"
    plan_index = build_hcl(g, landmarks)
    plan_index.compile_plan()
    return dict_index, plan_index


def same_float(a: float, b: float) -> bool:
    """Bitwise equality with nan == nan (inf - inf label arithmetic)."""
    return a == b or (a != a and b != b)


def all_pairs(n: int, stride: int = 1):
    return [(s, t) for s in range(0, n, stride) for t in range(0, n, stride)]


class TestDifferentialSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_query_and_distance_int_graphs(self, seed):
        g = random_graph(seed, n_lo=12, n_hi=30, weighted=True)
        rng = random.Random(seed + 500)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 3)))
        a, b = twin_indexes(g, landmarks)
        for s, t in all_pairs(g.n):
            assert same_float(a.query(s, t), b.query(s, t))
            assert same_float(a.distance(s, t), b.distance(s, t))

    @pytest.mark.parametrize("seed", range(6))
    def test_query_and_distance_float_graphs(self, seed):
        g = float_graph(seed)
        rng = random.Random(seed + 500)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 3)))
        a, b = twin_indexes(g, landmarks)
        for s, t in all_pairs(g.n):
            assert same_float(a.query(s, t), b.query(s, t))
            assert same_float(a.distance(s, t), b.distance(s, t))

    @pytest.mark.parametrize("seed", range(4))
    def test_query_batch_constrained_and_exact(self, seed):
        g = float_graph(seed, n_lo=20, n_hi=35)
        rng = random.Random(seed + 7)
        landmarks = sorted(rng.sample(range(g.n), 5))
        a, b = twin_indexes(g, landmarks)
        # Zipf skew drives endpoints past the g-row heat threshold.
        pairs = zipf_query_pairs(g.n, 400, alpha=1.3, seed=seed)
        assert query_batch(a, pairs, plan="off") == query_batch(
            b, pairs, plan="auto"
        )
        assert query_batch(a, pairs, exact=True, plan="off") == query_batch(
            b, pairs, exact=True, plan="auto"
        )

    def test_unreachable_pairs_stay_infinite(self):
        g = Graph(8, unweighted=True)
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            g.add_edge(u, v, 1.0)
        for u, v in [(4, 5), (5, 6), (6, 7)]:
            g.add_edge(u, v, 1.0)
        a, b = twin_indexes(g, [1, 2])
        for s, t in all_pairs(8):
            assert same_float(a.query(s, t), b.query(s, t))
            assert same_float(a.distance(s, t), b.distance(s, t))
        assert b.distance(0, 5) == INF

    def test_empty_landmark_set(self):
        g = path_graph(6)
        a, b = twin_indexes(g, [0])
        for index in (a, b):
            index.highway.remove_landmark(0)
            for v in range(6):
                index.labeling.clear_vertex(v)
        b.compile_plan()
        for s, t in all_pairs(6):
            assert same_float(a.query(s, t), b.query(s, t))
            assert same_float(a.distance(s, t), b.distance(s, t))


class TestDynamicsInvalidation:
    @pytest.mark.parametrize("floats", [False, True])
    def test_interleaved_add_remove(self, floats):
        g = (
            float_graph(11, n_lo=30, n_hi=30)
            if floats
            else grid_graph(5, 6)
        )
        d_dict = DynamicHCL.build(g, [2, 9])
        d_dict.index.plan_mode = "off"
        d_plan = DynamicHCL.build(g, [2, 9])
        script = [("add", 14), ("add", 20), ("remove", 2), ("add", 27),
                  ("remove", 20), ("add", 5)]
        for op, v in script:
            for d in (d_dict, d_plan):
                if op == "add":
                    d.add_landmark(v)
                else:
                    d.remove_landmark(v)
            # A plan recompiled against the new revision must track the
            # dict path.
            d_plan.index.compile_plan()
            for s, t in all_pairs(g.n, stride=3):
                assert same_float(d_dict.query(s, t), d_plan.query(s, t))
                assert same_float(
                    d_dict.distance(s, t), d_plan.distance(s, t)
                )

    def test_plan_invalidates_on_label_mutation(self):
        g = path_graph(8)
        index = build_hcl(g, [3])
        plan = index.compile_plan()
        assert plan.matches(index)
        index.labeling.add_entry(0, 3, 99.0)
        assert not plan.matches(index)
        assert index.plan() is None

    def test_plan_invalidates_on_highway_mutation(self):
        g = path_graph(8)
        index = build_hcl(g, [2, 6])
        plan = index.compile_plan()
        index.highway.set_distance(2, 6, 123.0)
        assert not plan.matches(index)

    def test_plan_invalidates_on_graph_mutation(self):
        g = path_graph(8)
        index = build_hcl(g, [3])
        plan = index.compile_plan()
        g.add_edge(0, 7, 1.0)
        assert not plan.matches(index)

    def test_plan_invalidates_on_rollback(self):
        """Rollback restores rows *directly*; the rev bump must still land."""
        g = path_graph(8)
        index = build_hcl(g, [3])
        plan = index.compile_plan()
        try:
            with IndexTransaction(index):
                index.labeling.add_entry(0, 3, 99.0)
                index.highway.set_distance(3, 3, 1.0)
                raise DeadlineExceeded("boom")
        except DeadlineExceeded:
            pass
        # value-identical to the pre-transaction state, but the plan must
        # still be dropped: the restore wrote rows behind the mutators.
        assert not plan.matches(index)
        assert index.distance(0, 7) == 7.0

    def test_auto_mode_compiles_after_threshold(self):
        g = grid_graph(4, 5)
        index = build_hcl(g, [0, 19])
        assert index.plan_mode == "auto"
        for _ in range(PLAN_COMPILE_AFTER):
            index.query(1, 18)
        assert index.plan() is None
        index.query(1, 18)  # crosses the threshold
        assert index.plan() is not None

    def test_off_mode_never_compiles(self):
        g = grid_graph(4, 5)
        index = build_hcl(g, [0, 19])
        index.plan_mode = "off"
        for _ in range(5 * PLAN_COMPILE_AFTER):
            index.query(1, 18)
            index.distance(2, 17)
        assert index.plan() is None

    def test_off_mode_pins_dict_path_even_with_compiled_plan(self):
        """'off' must mean off: a valid compiled plan may not serve.

        Observable by poisoning the plan's derived highway rows — with
        ``plan_mode = "off"`` the answers must come from the dicts and
        stay correct; flipping back to "auto" serves the poison.
        """
        g = grid_graph(4, 5)
        index = build_hcl(g, [0, 19])
        want = index.distance(1, 18)
        plan = index.compile_plan()
        plan._hwrows = [[0.0] * plan.k for _ in range(plan.k)]
        index.plan_mode = "off"
        assert index.distance(1, 18) == want
        index.plan_mode = "auto"
        assert index.distance(1, 18) != want  # the poisoned plan served

    def test_copy_does_not_share_plan(self):
        g = grid_graph(4, 5)
        index = build_hcl(g, [0, 19])
        index.compile_plan()
        index.query(1, 18)
        clone = index.copy()
        assert clone.plan_mode == "auto"
        assert clone.plan() is None  # recompiles on its own structures
        assert clone.query(1, 18) == index.query(1, 18)


class TestBudgetedParity:
    @pytest.mark.parametrize("max_settled", [0, 1, 2, 5, 20, 10_000])
    def test_degraded_results_identical(self, max_settled):
        g = float_graph(3, n_lo=35, n_hi=35)
        rng = random.Random(42)
        landmarks = sorted(rng.sample(range(g.n), 4))
        a, b = twin_indexes(g, landmarks)
        for s, t in all_pairs(g.n, stride=4):
            ra = a.distance(s, t, budget=Budget(max_settled=max_settled))
            rb = b.distance(s, t, budget=Budget(max_settled=max_settled))
            assert type(ra) is type(rb)
            assert same_float(float(ra), float(rb))
            if isinstance(ra, DegradedResult):
                assert ra.is_upper_bound == rb.is_upper_bound
                assert ra.reason == rb.reason

    def test_strict_raises_identically(self):
        g = grid_graph(6, 6)
        a, b = twin_indexes(g, [0, 35])
        with pytest.raises(DeadlineExceeded):
            a.distance(1, 34, budget=Budget(max_settled=1), strict=True)
        with pytest.raises(DeadlineExceeded):
            b.distance(1, 34, budget=Budget(max_settled=1), strict=True)

    def test_budgeted_batch_parity(self):
        g = float_graph(5, n_lo=30, n_hi=30)
        a, b = twin_indexes(g, [1, 8, 17])
        pairs = random_query_pairs(g.n, 60, seed=5)
        got_a = query_batch(
            a, pairs, exact=True, budget=Budget(max_settled=25), plan="off"
        )
        got_b = query_batch(
            b, pairs, exact=True, budget=Budget(max_settled=25), plan="auto"
        )
        assert [float(v) for v in got_a] == [float(v) for v in got_b]
        assert [type(v) for v in got_a] == [type(v) for v in got_b]

    def test_query_charges_budget_identically(self):
        g = grid_graph(5, 5)
        a, b = twin_indexes(g, [0, 24])
        ba, bb = Budget(max_settled=10_000), Budget(max_settled=10_000)
        a.query(1, 23, budget=ba)
        b.query(1, 23, budget=bb)
        assert ba.settled == bb.settled


class TestPlanMechanics:
    def test_pickle_round_trip(self):
        g = float_graph(9, n_lo=25, n_hi=25)
        index = build_hcl(g, [2, 7, 13])
        plan = index.compile_plan()
        clone = pickle.loads(pickle.dumps(plan))
        for s, t in all_pairs(g.n, stride=2):
            assert same_float(plan.query(s, t), clone.query(s, t))
        # unpickled plans carry no stamp: they never claim validity
        assert not clone.matches(index)

    def test_explicit_plan_argument(self):
        g = grid_graph(5, 5)
        index = build_hcl(g, [0, 24])
        index.plan_mode = "off"
        plan = QueryPlan.compile(index)
        pairs = random_query_pairs(g.n, 40, seed=3)
        assert query_batch(index, pairs, plan=plan) == query_batch(
            index, pairs, plan="off"
        )

    def test_auto_batch_respects_off_mode(self):
        g = grid_graph(5, 5)
        index = build_hcl(g, [0, 24])
        want = query_batch(index, [(1, 23)], exact=True, plan="off")
        plan = index.compile_plan()
        plan._hwrows = [[0.0] * plan.k for _ in range(plan.k)]  # poison
        index.plan_mode = "off"
        assert query_batch(index, [(1, 23)], exact=True, plan="auto") == want

    def test_bad_plan_argument_rejected(self):
        g = path_graph(4)
        index = build_hcl(g, [1])
        with pytest.raises(RequestError):
            query_batch(index, [(0, 3)], plan="definitely-not-a-mode")

    def test_workspace_epoch_isolates_queries(self):
        ws = SearchWorkspace(4)
        assert ws.epoch == 0
        g = path_graph(20, weights=[1.5] * 19)
        index = build_hcl(g, [10])
        index.compile_plan()
        # back-to-back refinements reuse one workspace; stale distances
        # from query k must be invisible to query k+1
        first = [index.distance(s, t) for s, t in all_pairs(20, stride=2)]
        second = [index.distance(s, t) for s, t in all_pairs(20, stride=2)]
        assert first == second
        plan = index.plan()
        assert plan._ws is not None and plan._ws.epoch > 1

    def test_compiled_rows_sorted_by_slot(self):
        g = random_graph(17, n_lo=15, n_hi=25, weighted=True)
        rng = random.Random(99)
        landmarks = sorted(rng.sample(range(g.n), 4))
        index = build_hcl(g, landmarks)
        plan = index.compile_plan()
        for v in range(g.n):
            slots = [s for _, s in plan._rows[v]]
            assert slots == sorted(slots)
            want = {landmarks[s]: d for d, s in plan._rows[v]}
            assert want == dict(index.labeling.row_items(v))

    def test_incomplete_highway_row_reads_inf(self):
        g = path_graph(6)
        index = build_hcl(g, [0, 5])
        del index.highway._dist[0][5]  # simulate a torn row
        plan = QueryPlan.compile(index)
        i, j = plan.slot_of[0], plan.slot_of[5]
        assert plan._hwrows[i][j] == INF

    def test_mask_cache_tracks_landmark_changes(self):
        g = grid_graph(4, 5)
        dyn = DynamicHCL.build(g, [0, 19])
        dyn.index.plan_mode = "off"
        before = dyn.distance(1, 18)
        assert dyn.index._exclusion_mask()[0]
        dyn.add_landmark(7)
        assert dyn.index._exclusion_mask()[7]  # stamp moved, mask rebuilt
        fresh = DynamicHCL.build(g, [0, 7, 19])
        assert dyn.distance(1, 18) == fresh.distance(1, 18)
        assert isinstance(before, float)


class TestReadOnlyLabels:
    def test_label_view_rejects_writes(self):
        g = path_graph(5)
        index = build_hcl(g, [2])
        view = index.labeling.label(0)
        with pytest.raises(TypeError):
            view[2] = 0.0
        with pytest.raises(TypeError):
            del view[2]

    def test_label_view_is_live_and_dict_equal(self):
        g = path_graph(5)
        index = build_hcl(g, [2])
        view = index.labeling.label(0)
        assert view == {2: 2.0}
        index.labeling.add_entry(0, 2, 3.0)
        assert view == {2: 3.0}

    def test_row_items_matches_label(self):
        g = random_graph(4, n_lo=10, n_hi=20)
        rng = random.Random(4)
        index = build_hcl(g, sorted(rng.sample(range(g.n), 3)))
        for v in range(g.n):
            items = index.labeling.row_items(v)
            assert dict(items) == dict(index.labeling.label(v))
            assert len(items) == len(index.labeling.label(v))


class TestServiceAndCacheIntegration:
    def test_cached_engine_serves_plan_answers(self):
        g = grid_graph(5, 6)
        dyn = DynamicHCL.build(g, [0, 29])
        dyn.index.compile_plan()
        engine = CachedQueryEngine(dyn)
        baseline = DynamicHCL.build(g, [0, 29])
        baseline.index.plan_mode = "off"
        for s, t in all_pairs(30, stride=4):
            assert engine.distance(s, t) == baseline.distance(s, t)
            assert engine.distance(s, t) == baseline.distance(s, t)  # hit
        dyn.add_landmark(13)
        baseline.add_landmark(13)
        dyn.index.compile_plan()
        for s, t in all_pairs(30, stride=4):
            assert engine.distance(s, t) == baseline.distance(s, t)

    def test_health_reports_plan_state(self):
        from repro.service import HCLService

        from repro.core.planvec import default_backend
        from repro.core.shm import shm_available

        svc = HCLService.build(grid_graph(4, 5), [0, 19])
        health = svc.health()
        # ``integrity`` mirrors process-global shm counters; assert its
        # shape rather than values (other tests in the run bump them).
        integrity = health["plan"].pop("integrity")
        assert integrity["auditor"] is None
        assert isinstance(integrity["quarantined_segments"], tuple)
        assert integrity["verified"] >= 0
        assert health["plan"] == {
            "mode": "auto",
            "compiled": False,
            "epochs": None,
            "backend": default_backend(),
            "shm": shm_available(),
        }
        svc._dyn.index.compile_plan()
        assert svc.health()["plan"]["compiled"] is True

        # Epoch mode never sets index.plan(); the registry head serves.
        svc = HCLService.build(grid_graph(4, 5), [0, 19])
        svc.enable_plan_epochs()
        svc.query_batch([(1, 18)])
        plan = svc.health()["plan"]
        assert plan["mode"] == "epoch"
        assert plan["epochs"]["epoch"] == 1
        assert plan["compiled"] is True
