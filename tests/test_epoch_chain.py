"""Differential tests for incremental epoch publishes.

Random chains of landmark additions and removals (with hole refills) and
``apply_batch`` calls carrying integer and fractional edge reweights run
through :class:`~repro.service.HCLService`.  After every publish the head
plan must equal a fresh :meth:`QueryPlan.compile` of the index:

* its ``G`` bitwise, up to the column permutation between plan slots and
  the sorted landmark order (hole columns all ``inf``);
* its spliced label CSR, decoded back to ``{landmark: distance}`` rows;
* its densified :meth:`~QueryPlan.canonical_arrays`, byte for byte;
* its answers — ``query_pairs``, ``plan.query`` and ``plan.distance`` —
  against the dict oracle with ``==``.

Every chain runs with numpy and with numpy patched out.  The remaining
tests pin the commit's changed-row set, the memoized densify and the
publish-path telemetry.
"""

from __future__ import annotations

import pickle
import random

import pytest

from conftest import random_graph
from repro.core import DynamicHCL, QueryPlan, planvec
from repro.core.auditor import PlanAuditor
from repro.graphs import barabasi_albert
from repro.service import AddLandmarkRequest, HCLService, RemoveLandmarkRequest


@pytest.fixture(params=["numpy", "no-numpy"])
def backend(request, monkeypatch):
    if request.param == "numpy":
        if not planvec.numpy_available():
            pytest.skip("numpy unavailable")
    else:
        monkeypatch.setattr(planvec, "_NUMPY", None)
        monkeypatch.setattr(planvec, "_NUMPY_CHECKED", True)
    return request.param


def oracle(index, pairs, exact=False):
    """Serial dict-path answers from a frozen copy of ``index``."""
    frozen = index.copy()
    frozen.plan_mode = "off"
    fn = frozen.distance if exact else frozen.query
    return [fn(s, t) for s, t in pairs]


def canonical_bytes(plan):
    n, k, ids, offsets, slots, dists, hw = plan.canonical_arrays()
    return n, k, [a.tobytes() for a in (ids, offsets, slots, dists, hw)]


def check_head(svc, registry, rng):
    """The head plan against a full compile and the dict oracle."""
    index = svc._dyn.index
    plan = registry.head.plan
    full = QueryPlan.compile(index)
    assert canonical_bytes(plan) == canonical_bytes(full)
    label = index.labeling.label
    ids = plan.landmark_ids
    for v in range(plan.n):
        assert {ids[s]: d for d, s in plan._rows[v]} == dict(label(v))

    vec = plan._vec
    if planvec.numpy_available():
        assert vec is not None and vec._G is not None  # built before publish
        decoded = [
            {ids[int(vec.slots[i])]: float(vec.dists[i])
             for i in range(vec.offsets[v], vec.offsets[v + 1])}
            for v in range(plan.n)
        ]
        assert decoded == [dict(label(v)) for v in range(plan.n)]
        cols = [plan.slot_of[r] for r in full.landmark_ids]
        holes = [j for j, r in enumerate(ids) if r < 0]
        G = vec._G
        want = full.vector_backend().g_matrix()
        assert G[:, cols].tobytes() == want.tobytes()
        assert (G[:, holes] == float("inf")).all()
    else:
        assert vec is None

    n = plan.n
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
    want = oracle(index, pairs)
    assert [plan.query(s, t) for s, t in pairs] == want
    if vec is not None:
        got = vec.query_pairs([s for s, _ in pairs], [t for _, t in pairs])
        assert got.tolist() == want
    assert svc.query_batch(pairs) == want
    exact = pairs[:60]
    assert [plan.distance(s, t) for s, t in exact] == oracle(
        index, exact, exact=True
    )


def run_chain(seed, steps=14):
    rng = random.Random(seed)
    g = random_graph(seed, n_lo=70, n_hi=90, weighted=True)
    svc = HCLService.build(g, sorted(rng.sample(range(g.n), 10)))
    registry = svc.enable_plan_epochs()
    registry.head_plan()._compile_adjacency()
    check_head(svc, registry, rng)
    edges = [(u, v) for u, v, _ in g.edges()]
    for step in range(steps):
        landmarks = sorted(svc.landmarks)
        others = [v for v in range(g.n) if v not in svc.landmarks]
        op = rng.choice(["add", "remove", "remove", "batch", "reweight"])
        if op == "add" or len(landmarks) < 6:
            svc.submit(AddLandmarkRequest(rng.choice(others)))
        elif op == "remove":
            svc.submit(RemoveLandmarkRequest(rng.choice(landmarks)))
        else:
            # A fractional weight turns the graph (and ALT) non-integral
            # until a later reweight happens to restore it.
            fraction = 0.5 if op == "reweight" and rng.random() < 0.5 else 0.0
            updates = [
                (u, v, float(rng.randint(1, 7)) + fraction)
                for u, v in rng.sample(edges, 3)
            ]
            swaps = 1 if op == "batch" else 0
            svc.submit_batch_reconfigure(
                adds=rng.sample(others, swaps),
                removes=rng.sample(landmarks, swaps),
                edge_updates=updates,
            )
        check_head(svc, registry, rng)
    return registry


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_epoch_chain_matches_full_compile(backend, seed):
    registry = run_chain(seed)
    summary = registry.summary()
    assert summary["incremental"] >= 8
    if backend == "numpy":
        assert summary["g_patched"] >= 4
        assert summary["g_patched"] + summary["g_full"] == summary["publishes"]
    else:
        assert summary["g_patched"] == summary["g_full"] == 0
        assert summary["last_g_path"] is None


def test_hole_refill_patches_g():
    if not planvec.numpy_available():
        pytest.skip("numpy unavailable")
    g = random_graph(9, n_lo=80, n_hi=80, weighted=True)
    svc = HCLService.build(g, [3, 11, 19, 27, 35, 43, 51, 59])
    registry = svc.enable_plan_epochs()
    registry.head_plan()
    rng = random.Random(9)
    svc.submit(RemoveLandmarkRequest(19))
    assert -1 in registry.head.plan.landmark_ids
    svc.submit(AddLandmarkRequest(70))  # refills the hole at slot 2
    plan = registry.head.plan
    assert plan.slot_of[70] == 2 and plan.label_offsets is None
    assert registry.summary()["last_g_path"] == "patched"
    check_head(svc, registry, rng)


def test_backend_from_rows_matches_the_patched_one():
    if not planvec.numpy_available():
        pytest.skip("numpy unavailable")
    g = random_graph(8, n_lo=60, n_hi=60, weighted=True)
    dyn = DynamicHCL.build(g, [1, 8, 15, 22, 29, 36, 43, 50])
    registry = dyn.enable_plan_epochs()
    registry.head_plan()
    dyn.remove_landmark(15)
    plan = registry.head.plan
    patched = plan._vec
    assert registry.summary()["last_g_path"] == "patched"
    plan._vec = None  # an incremental plan with no prior backend
    rebuilt = plan.vector_backend()
    for name in ("offsets", "slots", "dists", "hw", "row_len"):
        want = getattr(patched, name).tobytes()
        assert getattr(rebuilt, name).tobytes() == want
    assert rebuilt.g_matrix().tobytes() == patched.g_matrix().tobytes()


# ----------------------------------------------------------------------
# The commit's changed-row set
# ----------------------------------------------------------------------
def test_hub_removal_reports_exactly_the_changed_rows():
    g = barabasi_albert(600, 3, seed=4)
    hubs = sorted(range(g.n), key=lambda v: -g.degree(v))[:12]
    dyn = DynamicHCL.build(g, hubs)
    registry = dyn.enable_plan_epochs()
    registry.head_plan()
    seen = []
    commit = registry.on_commit

    def spy(affected=None, **kwargs):
        seen.append(set(affected))
        return commit(affected=affected, **kwargs)

    registry.on_commit = spy
    labels = dyn.index.labeling._labels
    before = [dict(row) for row in labels]
    dyn.remove_landmark(hubs[0])
    changed = {v for v in range(g.n) if labels[v] != before[v]}
    assert seen == [changed]
    assert 0 < len(changed) < g.n


# ----------------------------------------------------------------------
# Memoized densify
# ----------------------------------------------------------------------
def test_incremental_plan_densifies_once(monkeypatch):
    g = random_graph(5, n_lo=60, n_hi=60, weighted=True)
    dyn = DynamicHCL.build(g, [2, 9, 30, 41])
    registry = dyn.enable_plan_epochs()
    registry.head_plan()
    dyn.remove_landmark(9)
    plan = registry.head.plan
    assert plan.label_offsets is None  # an incremental plan

    calls = []
    densify = QueryPlan._canonical_args

    def counting(self):
        calls.append(self)
        return densify(self)

    monkeypatch.setattr(QueryPlan, "_canonical_args", counting)
    auditor = PlanAuditor(dyn)
    assert auditor.tick().mismatches == 0
    assert auditor.tick().mismatches == 0
    clone = pickle.loads(pickle.dumps(plan))
    assert calls == [plan]
    assert list(clone.landmark_ids) == sorted(dyn.landmarks)


# ----------------------------------------------------------------------
# Publish telemetry
# ----------------------------------------------------------------------
def test_g_path_counters_and_summary():
    if not planvec.numpy_available():
        pytest.skip("numpy unavailable")
    from repro import obs

    g = random_graph(6, n_lo=60, n_hi=60, weighted=True)
    dyn = DynamicHCL.build(g, [4, 12, 20, 28, 36, 44, 52, 58])
    registry = dyn.enable_plan_epochs()
    with obs.observed() as reg:
        registry.head_plan()
        assert registry.summary()["last_g_path"] == "no_prior"
        dyn.add_landmark(7)
        summary = registry.summary()
        assert summary["last_g_path"] == "patched"
        assert 0 < summary["last_rows_patched"] < g.n
        # Shorten edges at landmarks until one moves a δ_H cell.
        for u, v, w in list(g.edges()):
            if w > 1.0 and (u in dyn.landmarks or v in dyn.landmarks):
                dyn.apply_batch(edge_updates=[(u, v, 1.0)])
                if registry.summary()["last_g_path"] == "hw_moved":
                    break
                assert registry.summary()["last_g_path"] == "patched"
        assert registry.summary()["last_g_path"] == "hw_moved"
        for r in (12, 20, 28):  # a fourth hole crosses the quarter bound
            dyn.remove_landmark(r)
        assert registry.summary()["last_g_path"] == "holes"
        assert registry.summary()["last_rows_patched"] == g.n
    snap = reg.snapshot()
    counters = snap["counters"]
    assert counters["plan.epoch.g_patched"] == registry.g_patched
    assert counters["plan.epoch.g_full"] == registry.g_full
    assert counters["plan.epoch.g_full.hw_moved"] >= 1
    assert counters["plan.epoch.g_full.holes"] == 1
    hist = snap["histograms"]["plan.epoch.rows_patched"]
    assert hist["count"] == registry.publishes
