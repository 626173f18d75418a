"""Observability benchmark: regression + disabled-tracing overhead gates.

Runs a pinned, CPU-bound DYN-HCL workload (build, batched queries, a run
of UPGRADE-LMK / DOWNGRADE-LMK, and a mixed service session with a WAL)
with tracing *disabled* — the production configuration — and compares the
segment timings against the committed ``BENCH_baseline.json``, which was
recorded from the pre-instrumentation tree.  Two gates:

* **latency regression**: any gated segment > ``1 + --tol-regression``
  (default 20%) over the baseline fails;
* **disabled-tracing overhead**: the same comparison at
  ``--tol-overhead`` (default 2%) — the observability seams must be free
  when off.  The same gate covers the *budget* seams: every gated
  segment runs with ``budget=None`` (the production configuration), so
  the deadline checkpoints threaded through the query and update paths
  must also be free when unarmed.  ``distance_exact`` pins the exact
  serving path (constrained bound + bounded bidirectional refinement)
  where the budgeted-twin dispatch lives; the budgeted variant is
  re-run with an unlimited budget and reported (ungated) as the cost of
  *arming* a budget.

The compiled-plan serving path gets its own segments
(``query_batch_plan``, ``distance_plan``, and the ungated
``plan_compile`` amortization cost) measured on the same index and query
pairs as their dict twins.  Besides the absolute baseline gates,
``distance_plan`` must beat its dict twin *within the same run* by
``PLAN_SPEEDUP_MIN`` — a machine-independent relative gate, so the
speedup the plan exists for can never silently rot away.  The
``query_batch`` dict twin is reported ungated: a ``plan="off"`` batch is
the per-pair dict oracle loop, not a serving path, so neither its
absolute time nor the plan's margin over it gates anything.

``query_mvcc`` times the same batch served through a pinned MVCC epoch
(``plan="epoch"``): identical plan arrays, minus the per-batch
revision-stamp revalidation, plus one refcount pin/release.  Its
relative gate (``MVCC_SPEEDUP_MIN``) asserts parity with
``query_batch_plan`` within noise — epoch pinning must never make
serving slower than the revalidating path it replaces.

``query_sharded`` serves the same batch through a local 2-shard
:class:`~repro.shard.ShardedService` fleet; its relative gate
(``SHARD_SPEEDUP_MIN``) bounds the scatter-gather tax — pipes, pickling
and routing must keep the fleet within 2x of the in-process plan path.

``query_batch_vec`` and ``distance_vec`` serve the same batch and exact
pairs through the numpy :class:`~repro.core.planvec.VectorBackend`
(``distance_vec`` refines the vector kernel's bound); the flat twins
patch numpy out of :mod:`repro.core.planvec`, since a plan serves from
the vector kernel whenever numpy imports.  The batch
segment carries the headline relative gate (``VEC_SPEEDUP_MIN``): the
vectorized reduction must beat the interpreted flat kernel >= 1.5x
in-run, on top of bitwise-identical answers.  The exact path is
refinement-dominated, so ``distance_vec`` gates at parity-within-noise.
Both segments (and their gates) are skipped with a notice when numpy is
unavailable — the flat kernel is the portable serving path.

``batch_reconfigure`` applies one merged σ=8 landmark batch (4
promotions + 4 demotions) through :meth:`DynamicHCL.apply_batch` —
one transaction, one union repair sweep, one epoch publish — and
``batch_sequential`` replays the same swap one single-update at a time
(σ transactions, σ publishes) on an identical index copy.
``batch_edge_update`` does the same for 8 edge reweights on a weighted
copy of the instance versus per-edge transactional
``set_edge_weight`` replay.  Both batch segments carry the issue's
acceptance gate (``BATCH_SPEEDUP_MIN``): merging must beat replay
>= 1.5x in-run, on top of bitwise-identical final indexes, exactly one
epoch publish per batch, and exactly one WAL ``BATCH`` record
(asserted untimed against a throwaway service).

Wall-clock numbers are not portable between machines, so every timing is
normalized by an in-run *calibration* score (a fixed arithmetic loop) the
baseline also stores; the gates compare normalized values.  Fsync-bound
work (the service segment) is reported but never gated — filesystem
latency is not a property of this code.

After the gates, the workload runs once more with tracing *enabled* and
the full metrics snapshot (search counters, affected-set sizes, cache hit
rates, WAL fsync latencies, request histograms) is written to ``--out``
as the CI build artifact.

Usage::

    python benchmarks/bench_obs.py --check BENCH_baseline.json --out m.json
    python benchmarks/bench_obs.py --write-baseline BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.budget import Budget  # noqa: E402
from repro.core import (  # noqa: E402
    DynamicHCL,
    build_hcl,
    downgrade_landmark,
    select_landmarks,
    upgrade_landmark,
)
from repro.core.batchquery import query_batch  # noqa: E402
from repro.core.index import HCLIndex  # noqa: E402
from repro.core.topology import FullyDynamicHCL  # noqa: E402
from repro.core.transaction import IndexTransaction  # noqa: E402
from repro.graphs import (  # noqa: E402
    assign_uniform_integer_weights,
    barabasi_albert,
)
from repro.service import (  # noqa: E402
    AddLandmarkRequest,
    BatchQueryRequest,
    ConstrainedDistanceRequest,
    DistanceRequest,
    HCLService,
    RemoveLandmarkRequest,
)
from repro.workloads import zipf_query_pairs  # noqa: E402

try:  # absent only in the pre-instrumentation tree the baseline came from
    from repro import obs
except ImportError:  # pragma: no cover
    obs = None

REPS = 3
GATED_SEGMENTS = (
    "build",
    "distance_exact",
    "upgrade",
    "downgrade",
    "query_batch_plan",
    "distance_plan",
    "query_mvcc",
    "query_batch_vec",
    "distance_vec",
    "batch_reconfigure",
    "batch_edge_update",
)

# Relative gate: the compiled-plan serving path must actually beat its
# dict twin *within the same run* (machine-independent, so it needs no
# baseline entry).  Measured headroom is ~1.58x; the gate is set
# conservatively below that so CI noise cannot flake it.
PLAN_TWINS = {
    "distance_plan": "distance_exact",
}
PLAN_SPEEDUP_MIN = 1.25

# Epoch-pinned MVCC serving runs the same plan arrays as
# ``query_batch_plan`` minus the revision-stamp check, so the gate is
# parity-within-noise rather than a speedup claim: pinning an epoch must
# never cost more than the revalidating path it replaces.  The two
# segments are timed interleaved in the same rep loop, but batch-to-batch
# variance on shared runners still reaches ~15%, hence the floor.
MVCC_TWINS = {"query_mvcc": "query_batch_plan"}
MVCC_SPEEDUP_MIN = 0.85

# Scatter-gather over a local 2-shard fleet serves the same batch through
# pipes, pickling and the routing loop — a tax, not a win, on one
# machine (sharding exists for capacity and fault isolation).  The gate
# bounds the tax: the fleet must stay within 2x of the in-process plan
# path (measured ~0.75x on the pinned workload).
SHARD_TWINS = {"query_sharded": "query_batch_plan"}
SHARD_SPEEDUP_MIN = 0.5
SHARD_NSHARDS = 2

# The vectorized backend exists to beat the interpreted flat kernel on
# the constrained batch path (measured ~2.5x); the gate is set at the
# issue's acceptance floor.  The exact path spends its time in the
# bidirectional refinement either way, so its vec segment gates at
# parity-within-noise like MVCC.
VEC_TWINS = {"query_batch_vec": "query_batch_plan"}
VEC_SPEEDUP_MIN = 1.5
DIST_VEC_TWINS = {"distance_vec": "distance_plan"}
DIST_VEC_SPEEDUP_MIN = 0.85

# One merged batch vs its sequential single-update replay, both through
# the transactional, epoch-serving path on identical index copies.
# Merging pays once for the transaction snapshot, the repair sweep over
# the *union* affected set and the epoch recompile where the replay pays
# σ times over; the gate is the issue's acceptance floor.
BATCH_TWINS = {
    "batch_reconfigure": "batch_sequential",
    "batch_edge_update": "edge_sequential",
}
BATCH_SPEEDUP_MIN = 1.5
BATCH_SWAPS = 4  # σ = 8: 4 promotions + 4 demotions
BATCH_EDGES = 8

# Attach-time CRC verification (``shm_attach_verify`` vs the unchecked
# ``shm_attach``).  Attaching happens once per worker per publish — never
# per query — so the integrity pass is gated *relative to one serving
# batch*: the full verifying attach must cost < 2% of ``query_batch_plan``
# in the same run.  Both segments are skipped (with a notice) when shared
# memory is unavailable.
SHM_VERIFY_TWIN = ("shm_attach_verify", "query_batch_plan")
SHM_VERIFY_MAX_FRACTION = 0.02

# Pinned workload: a ~20k-vertex power-law graph, 32 landmarks.
GRAPH_N, GRAPH_M, GRAPH_SEED = 20000, 3, 11
LANDMARKS, LANDMARK_SEED = 32, 1
QUERY_PAIRS, QUERY_SEED = 60000, 3
EXACT_PAIRS = 3000
UPDATES = 6


def calibration_score() -> float:
    """Seconds for a fixed arithmetic loop (machine-speed proxy)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        best = min(best, time.perf_counter() - start)
    assert acc  # keep the loop honest
    return best


@contextmanager
def flat_kernel():
    """Patch numpy out of ``repro.core.planvec``: plans serve flat."""
    from repro.core import planvec

    saved = planvec._NUMPY, planvec._NUMPY_CHECKED
    planvec._NUMPY, planvec._NUMPY_CHECKED = None, True
    try:
        yield
    finally:
        planvec._NUMPY, planvec._NUMPY_CHECKED = saved


def make_instance():
    graph = barabasi_albert(GRAPH_N, GRAPH_M, seed=GRAPH_SEED)
    landmarks = select_landmarks(graph, LANDMARKS, seed=LANDMARK_SEED)
    return graph, landmarks


def update_vertices(graph, landmarks) -> list[int]:
    rng = random.Random(42)
    pool = [v for v in range(graph.n) if v not in set(landmarks)]
    rng.shuffle(pool)
    return pool[:UPDATES]


def run_workload() -> dict[str, float]:
    """One full pass over every segment; returns min-of-REPS seconds."""
    graph, landmarks = make_instance()
    pairs = zipf_query_pairs(graph.n, QUERY_PAIRS, alpha=1.0, seed=QUERY_SEED)
    ups = None
    times: dict[str, list[float]] = {}

    def record(name: str, seconds: float) -> None:
        times.setdefault(name, []).append(seconds)

    # Untimed warmup: first-touch costs (imports, allocator growth, page
    # cache) land here instead of skewing the first timed rep.
    build_hcl(graph, landmarks)

    index = None
    for _ in range(REPS):
        start = time.perf_counter()
        index = build_hcl(graph, landmarks)
        record("build", time.perf_counter() - start)
    # Pin every dict-path segment: the baseline numbers predate the
    # compiled plan, so auto-compilation mid-segment would compare a
    # different algorithm against them.  The plan gets its own segments.
    index.plan_mode = "off"
    ups = update_vertices(graph, landmarks)

    for _ in range(REPS):
        start = time.perf_counter()
        answers = query_batch(index, pairs, plan="off")
        record("query_batch", time.perf_counter() - start)
    assert len(answers) == len(pairs)

    exact_pairs = pairs[:EXACT_PAIRS]
    for _ in range(REPS):
        distance = index.distance
        start = time.perf_counter()
        for s, t in exact_pairs:
            distance(s, t)
        record("distance_exact", time.perf_counter() - start)
    for _ in range(REPS):
        budget = Budget()  # armed but unlimited: the budgeted-twin cost
        distance = index.distance
        start = time.perf_counter()
        for s, t in exact_pairs:
            distance(s, t, budget=budget)
        record("distance_exact_budgeted", time.perf_counter() - start)

    for _ in range(REPS):
        work = index.copy()
        start = time.perf_counter()
        for v in ups:
            upgrade_landmark(work, v)
        record("upgrade", time.perf_counter() - start)
        start = time.perf_counter()
        for v in ups:
            downgrade_landmark(work, v)
        record("downgrade", time.perf_counter() - start)

    with tempfile.TemporaryDirectory() as tmp:
        svc = HCLService(
            DynamicHCL(index.copy()), wal=Path(tmp) / "bench.wal"
        )
        requests = [DistanceRequest(1, 2), ConstrainedDistanceRequest(3, 4)]
        requests += [AddLandmarkRequest(v) for v in ups[:2]]
        requests += [BatchQueryRequest(tuple(pairs[:2000]))]
        requests += [RemoveLandmarkRequest(v) for v in ups[:2]]
        start = time.perf_counter()
        for request in requests:
            svc.submit(request)
        record("service", time.perf_counter() - start)

    # Batch-dynamic maintenance: one merged apply_batch versus the
    # sequential single-update replay of the same σ=8 mixed swap, each
    # through the full transactional, epoch-serving path on identical
    # index copies.  The epoch-publish counters assert the contract the
    # speedup comes from: the batch pays one publish, the replay pays σ.
    swap_adds = ups[:BATCH_SWAPS]
    swap_rng = random.Random(7)
    swap_removes = sorted(swap_rng.sample(sorted(landmarks), BATCH_SWAPS))
    for _ in range(REPS):
        batched = DynamicHCL(index.copy())
        registry = batched.enable_plan_epochs()
        batched.query(0, 1)  # materialize the first epoch, untimed
        pubs = registry.summary()["publishes"]
        start = time.perf_counter()
        batched.apply_batch(adds=swap_adds, removes=swap_removes)
        record("batch_reconfigure", time.perf_counter() - start)
        assert registry.summary()["publishes"] == pubs + 1

        seq = DynamicHCL(index.copy())
        registry = seq.enable_plan_epochs()
        seq.query(0, 1)
        pubs = registry.summary()["publishes"]
        start = time.perf_counter()
        for v in swap_adds:
            seq.add_landmark(v)
        for v in swap_removes:
            seq.remove_landmark(v)
        record("batch_sequential", time.perf_counter() - start)
        assert registry.summary()["publishes"] == pubs + 2 * BATCH_SWAPS
        assert batched.index.structurally_equal(seq.index)

    # Edge-weight batches need a weighted instance (the pinned BA graph
    # is unweighted).  Highway and labeling are shared via copies of one
    # base build; each twin reweights its *own* graph copy so the
    # updates cannot leak between measurements.
    wgraph = assign_uniform_integer_weights(graph, 1, 7, seed=5)
    base_widx = build_hcl(wgraph, landmarks)
    edge_rng = random.Random(13)
    edge_pool = [e for _, e in zip(range(4000), wgraph.edges())]
    edge_ups = [
        (u, v, w + 1.0)
        for u, v, w in edge_rng.sample(edge_pool, BATCH_EDGES)
    ]
    for _ in range(REPS):
        batched = DynamicHCL(
            HCLIndex(
                wgraph.copy(),
                base_widx.highway.copy(),
                base_widx.labeling.copy(),
            )
        )
        registry = batched.enable_plan_epochs()
        batched.query(0, 1)
        pubs = registry.summary()["publishes"]
        start = time.perf_counter()
        batched.apply_batch(edge_updates=edge_ups)
        record("batch_edge_update", time.perf_counter() - start)
        assert registry.summary()["publishes"] == pubs + 1

        seq = FullyDynamicHCL(
            HCLIndex(
                wgraph.copy(),
                base_widx.highway.copy(),
                base_widx.labeling.copy(),
            )
        )
        registry = seq.enable_plan_epochs()
        seq.query(0, 1)
        start = time.perf_counter()
        for u, v, w in edge_ups:
            with IndexTransaction(seq.index):
                seq.set_edge_weight(u, v, w)
        record("edge_sequential", time.perf_counter() - start)
        assert batched.index.structurally_equal(seq.index)

    # Durability contract, untimed (fsync-bound): the whole batch lands
    # as exactly one WAL BATCH record.
    with tempfile.TemporaryDirectory() as tmp:
        svcb = HCLService(
            DynamicHCL(index.copy()), wal=Path(tmp) / "batch.wal"
        )
        svcb.submit_batch_reconfigure(
            adds=swap_adds, removes=swap_removes
        )
        assert svcb.wal.last_seq == 1

    # Compiled-plan serving path, on the same index and pairs as the
    # dict twins above so the PLAN_TWINS gate is apples-to-apples.
    plan = None
    for _ in range(REPS):
        start = time.perf_counter()
        plan = index.compile_plan()
        record("plan_compile", time.perf_counter() - start)

    # MVCC epoch serving reuses the same pairs; the initial epoch
    # compiles outside the timers (it is the plan_compile cost again).
    # The revalidating and epoch-pinned batches are timed back-to-back
    # inside one rep loop so their parity gate compares timings taken
    # under the same machine conditions.
    index.plan_mode = "epoch"
    index.epoch_registry().head_plan()
    from repro.core.planvec import numpy_available

    have_numpy = numpy_available()
    if have_numpy:
        # One-time g-matrix factorization; amortized like plan_compile,
        # reported ungated.
        start = time.perf_counter()
        plan.vector_backend().g_matrix()
        record("vec_build", time.perf_counter() - start)
    else:
        print(
            "[bench_obs] numpy unavailable: skipping query_batch_vec / "
            "distance_vec segments and their gates"
        )
    vec_answers = None
    for _ in range(REPS):
        with flat_kernel():
            start = time.perf_counter()
            plan_answers = query_batch(index, pairs, plan=plan)
            record("query_batch_plan", time.perf_counter() - start)
            start = time.perf_counter()
            mvcc_answers = query_batch(index, pairs, plan="epoch")
            record("query_mvcc", time.perf_counter() - start)
        if have_numpy:
            start = time.perf_counter()
            vec_answers = query_batch(index, pairs, plan=plan)
            record("query_batch_vec", time.perf_counter() - start)
    assert plan_answers == answers  # bitwise-identical serving
    assert mvcc_answers == answers  # snapshot serving stays bitwise-identical
    if have_numpy:
        assert vec_answers == answers  # vectorized serving, same bits

    index.plan_mode = "auto"  # adopt the compiled plan for distance()
    for _ in range(REPS):
        distance = index.distance
        start = time.perf_counter()
        for s, t in exact_pairs:
            distance(s, t)
        record("distance_plan", time.perf_counter() - start)
    if have_numpy:
        vquery = plan.vector_backend().query
        for _ in range(REPS):
            pdist = plan.distance
            start = time.perf_counter()
            for s, t in exact_pairs:
                pdist(s, t, ub=vquery(s, t))
            record("distance_vec", time.perf_counter() - start)

    # Attach-time integrity: one unchecked attach vs one verifying
    # attach of the same live segment (header + five CRC32 passes over
    # the canonical arrays).  Segment creation stays untimed — it is the
    # plan_compile-style amortized cost.
    from repro.core.shm import shm_available

    if shm_available():
        shared = plan.shared_buffers()
        for _ in range(REPS):
            start = time.perf_counter()
            attachment = shared.ref.attach(verify=False)
            attachment.close()
            record("shm_attach", time.perf_counter() - start)
            start = time.perf_counter()
            attachment = shared.ref.attach()  # verify=True: full CRC pass
            attachment.close()
            record("shm_attach_verify", time.perf_counter() - start)
    else:
        print(
            "[bench_obs] shared memory unavailable: skipping shm_attach / "
            "shm_attach_verify segments and the CRC gate"
        )

    # Sharded scatter-gather over the same plan and pairs; spawn/load and
    # one warmup batch (worker first-touch, g-row heating) stay untimed.
    from repro.shard import ShardedService

    svc = ShardedService(plan, nshards=SHARD_NSHARDS, rpc_timeout=30.0)
    try:
        sharded_answers = svc.query_batch(pairs)
        for _ in range(REPS):
            start = time.perf_counter()
            sharded_answers = svc.query_batch(pairs)
            record("query_sharded", time.perf_counter() - start)
    finally:
        svc.close()
    assert sharded_answers == answers  # scatter-gather stays bitwise-identical

    return {name: min(vals) for name, vals in times.items()}


def observed_snapshot(out_path: str | None) -> dict:
    """Run a compact enabled-tracing pass and return the metrics snapshot."""
    if obs is None:  # pre-instrumentation tree
        return {}
    registry = obs.MetricsRegistry()
    graph = barabasi_albert(4000, GRAPH_M, seed=GRAPH_SEED)
    landmarks = select_landmarks(graph, 16, seed=LANDMARK_SEED)
    pairs = zipf_query_pairs(graph.n, 4000, alpha=1.0, seed=QUERY_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        with obs.observed(registry):
            index = build_hcl(graph, landmarks)
            svc = HCLService(
                DynamicHCL(index), wal=Path(tmp) / "bench.wal"
            )
            for v in update_vertices(graph, landmarks)[:3]:
                svc.submit(AddLandmarkRequest(v))
                svc.submit(RemoveLandmarkRequest(v))
            svc.query_batch(pairs)
            svc.query_batch(pairs[:500])  # warm-cache pass
            snapshot = svc.metrics()
    if out_path:
        Path(out_path).write_text(json.dumps(snapshot, indent=2))
    return snapshot


def result_payload(segments: dict[str, float], calibration: float) -> dict:
    return {
        "schema": "bench-obs/1",
        "calibration_seconds": calibration,
        "segments": segments,
        "workload": {
            "graph": [GRAPH_N, GRAPH_M, GRAPH_SEED],
            "landmarks": [LANDMARKS, LANDMARK_SEED],
            "query_pairs": [QUERY_PAIRS, QUERY_SEED],
            "updates": UPDATES,
            "reps": REPS,
        },
        "python": platform.python_version(),
    }


def plan_speedups(
    segments: dict[str, float], twins: dict[str, str] = PLAN_TWINS
) -> dict[str, float]:
    """twin time / segment time for every measured twinned segment."""
    return {
        name: segments[twin] / segments[name]
        for name, twin in twins.items()
        if name in segments and twin in segments
    }


def check(baseline: dict, current: dict, tol_reg: float, tol_over: float) -> int:
    scale = current["calibration_seconds"] / baseline["calibration_seconds"]
    failures = []
    print(f"[bench_obs] calibration scale vs baseline: {scale:.3f}x")
    for name, t_cur in current["segments"].items():
        t_base = baseline["segments"].get(name)
        if t_base is None:
            print(f"[bench_obs] {name}: {t_cur:.3f}s (no baseline; skipped)")
            continue
        norm = t_cur / (t_base * scale)
        gated = name in GATED_SEGMENTS
        verdict = "ok"
        if gated and norm > 1 + tol_reg:
            verdict = f"REGRESSION (> {tol_reg:.0%})"
            failures.append(name)
        elif gated and norm > 1 + tol_over:
            verdict = f"OVERHEAD (> {tol_over:.0%})"
            failures.append(name)
        print(
            f"[bench_obs] {name}: {t_cur:.3f}s vs baseline "
            f"{t_base:.3f}s -> normalized {norm:.3f} "
            f"({'gated' if gated else 'ungated'}) {verdict}"
        )
    relative_gates = (
        (PLAN_TWINS, PLAN_SPEEDUP_MIN),
        (MVCC_TWINS, MVCC_SPEEDUP_MIN),
        (SHARD_TWINS, SHARD_SPEEDUP_MIN),
        (VEC_TWINS, VEC_SPEEDUP_MIN),
        (DIST_VEC_TWINS, DIST_VEC_SPEEDUP_MIN),
        (BATCH_TWINS, BATCH_SPEEDUP_MIN),
    )
    for twins, minimum in relative_gates:
        for name, speedup in plan_speedups(current["segments"], twins).items():
            verdict = "ok"
            if speedup < minimum:
                verdict = f"TOO SLOW (< {minimum:.2f}x)"
                failures.append(name)
            print(
                f"[bench_obs] {name}: {speedup:.2f}x over {twins[name]} "
                f"(relative gate, >= {minimum:.2f}x) {verdict}"
            )
    name, twin = SHM_VERIFY_TWIN
    if name in current["segments"] and twin in current["segments"]:
        fraction = current["segments"][name] / current["segments"][twin]
        verdict = "ok"
        if fraction > SHM_VERIFY_MAX_FRACTION:
            verdict = f"TOO EXPENSIVE (> {SHM_VERIFY_MAX_FRACTION:.0%})"
            failures.append(name)
        print(
            f"[bench_obs] {name}: {fraction:.4f} of {twin} "
            f"(CRC gate, <= {SHM_VERIFY_MAX_FRACTION:.0%}) {verdict}"
        )
    if failures:
        print(f"[bench_obs] FAILED segments: {', '.join(failures)}")
        return 1
    print("[bench_obs] all gates passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-baseline", metavar="PATH")
    parser.add_argument("--check", metavar="PATH")
    parser.add_argument("--out", metavar="PATH", help="metrics JSON artifact")
    parser.add_argument("--tol-regression", type=float, default=0.20)
    parser.add_argument("--tol-overhead", type=float, default=0.02)
    args = parser.parse_args(argv)

    if obs is not None:
        assert not obs.OBS.enabled, "tracing must be disabled for the gates"
    calibration = calibration_score()
    segments = run_workload()
    payload = result_payload(segments, calibration)
    for name, seconds in segments.items():
        print(f"[bench_obs] measured {name}: {seconds:.3f}s")
    if "distance_exact" in segments:
        ratio = segments["distance_exact_budgeted"] / segments["distance_exact"]
        print(
            f"[bench_obs] armed-budget cost on the exact path: "
            f"{ratio:.3f}x (ungated; production serves budget=None)"
        )
    for twins in (
        PLAN_TWINS,
        MVCC_TWINS,
        SHARD_TWINS,
        VEC_TWINS,
        DIST_VEC_TWINS,
        BATCH_TWINS,
    ):
        for name, speedup in plan_speedups(segments, twins).items():
            print(
                f"[bench_obs] relative speedup {name}: {speedup:.2f}x over "
                f"{twins[name]}"
            )
    if "shm_attach_verify" in segments:
        fraction = segments["shm_attach_verify"] / segments["query_batch_plan"]
        print(
            f"[bench_obs] verifying attach: "
            f"{segments['shm_attach_verify'] * 1000:.2f}ms "
            f"({fraction:.4f} of one query_batch_plan batch)"
        )

    status = 0
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(payload, indent=2))
        print(f"[bench_obs] baseline written to {args.write_baseline}")
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        status = check(
            baseline, payload, args.tol_regression, args.tol_overhead
        )
    if args.out:
        snapshot = observed_snapshot(args.out)
        if snapshot:
            print(f"[bench_obs] metrics artifact written to {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
