"""Shared experiment machinery: timed runs of DYN-HCL and CH-GSP.

Implements the paper's methodology steps (1)–(5):

1. build an initial HCL index over landmarks chosen by the standard policy;
2. (sparse graphs) preprocess CH-GSP and time its setup;
3. apply ``σ = |R|/4`` mixed landmark updates;
4. time each ``UPGRADE-LMK`` / ``DOWNGRADE-LMK`` invocation;
5. rebuild from scratch with ``BUILDHCL`` on the final landmark set, then
   issue ``q`` random landmark-constrained queries on both engines.

Results are returned as plain dataclasses the table runners format.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.ch.gsp import CHGSP
from ..core.batchquery import query_batch
from ..core.build import build_hcl, build_hcl_parallel
from ..core.dynhcl import DynamicHCL
from ..core.selection import select_landmarks
from ..graphs.graph import Graph
from ..obs import MetricsRegistry, Tracer
from ..workloads.queries import random_query_pairs, zipf_query_pairs
from ..workloads.updates import mixed_update_sequence

__all__ = [
    "G1Result",
    "G2Result",
    "ParallelResult",
    "run_g1",
    "run_g2",
    "run_parallel",
]


def _tracer() -> Tracer:
    """A run-local span tracer (does not touch the global ``repro.obs.OBS``,
    so the production kernels stay on their uninstrumented fast path)."""
    return Tracer(MetricsRegistry(), enabled=True)


@dataclass(frozen=True)
class G1Result:
    """One Table 2 cell group: dynamic maintenance vs full rebuild.

    The ``settled``/``swept``/``pruned`` work counters are the paper's
    cost model in machine-independent units: total ``UPGRADE-LMK``
    affected-set size, total ``DOWNGRADE-LMK`` sweep size, and total
    pruning-test rejections over the whole update sequence.  They were
    appended with defaults so pre-existing constructions stay valid.
    """

    dataset: str
    landmarks: int
    sigma: int
    t_build: float  # BUILDHCL from scratch on the final landmark set
    t_fdyn: float  # mean per-update time of UPGRADE/DOWNGRADE-LMK
    label_entries_dyn: int
    label_entries_rebuilt: int
    settled: int = 0
    swept: int = 0
    pruned: int = 0

    @property
    def speedup(self) -> float:
        """The paper's SPEED-UP column: ``T_BUILD / T_FDYN``."""
        return self.t_build / self.t_fdyn if self.t_fdyn > 0 else float("inf")

    @property
    def work_per_update(self) -> float:
        """Mean vertices processed per update — the machine-independent
        companion of ``t_fdyn`` (settled + swept + pruned, over σ)."""
        if self.sigma <= 0:
            return 0.0
        return (self.settled + self.swept + self.pruned) / self.sigma


@dataclass(frozen=True)
class G2Result:
    """One Table 3 cell group: cumulative/amortized DYN-HCL vs CH-GSP.

    ``cmt_fdyn`` / ``cmt_chgsp`` are *wall-clock* span durations of the
    whole engine phase, and each decomposes exactly into its parts::

        cmt_fdyn  == t_build + t_maintain + t_queries + t_overhead
        cmt_chgsp == t_chgsp_pre + t_chgsp_maintain + t_chgsp_queries
                     + t_chgsp_overhead

    where the ``*_overhead`` component is the phase span's self-time:
    everything between the child spans (iteration bookkeeping, cache
    warm-up, result collection) that earlier versions silently dropped
    from the reported totals.  The decomposition fields were appended
    with defaults, so pre-existing constructions remain valid.

    ``settled``/``swept``/``pruned`` are the maintenance phase's work
    counters (see :class:`G1Result`) — the machine-independent
    companions of ``t_maintain``.
    """

    dataset: str
    landmarks: int
    sigma: int
    queries: int
    cmt_fdyn: float
    cmt_chgsp: float
    t_build: float = 0.0
    t_maintain: float = 0.0
    t_queries: float = 0.0
    t_overhead: float = 0.0
    t_chgsp_pre: float = 0.0
    t_chgsp_maintain: float = 0.0
    t_chgsp_queries: float = 0.0
    t_chgsp_overhead: float = 0.0
    settled: int = 0
    swept: int = 0
    pruned: int = 0

    @property
    def amr_fdyn(self) -> float:
        """Amortized DYN-HCL cost per query."""
        return self.cmt_fdyn / self.queries

    @property
    def amr_chgsp(self) -> float:
        """Amortized CH-GSP cost per query."""
        return self.cmt_chgsp / self.queries


def run_g1(
    graph: Graph,
    dataset: str,
    landmark_count: int,
    seed: int = 0,
    policy: str = "auto",
) -> G1Result:
    """Goal (G1): maintenance efficiency of DYN-HCL vs BUILDHCL (Table 2)."""
    initial = select_landmarks(graph, landmark_count, policy=policy, seed=seed)
    dyn = DynamicHCL.build(graph, initial)
    updates = mixed_update_sequence(graph.n, initial, seed=seed + 1)
    log = dyn.apply_sequence(updates)

    final_landmarks = sorted(dyn.landmarks)
    tracer = _tracer()
    with tracer.span("g1.rebuild") as sp_build:
        rebuilt = build_hcl(graph, final_landmarks)
    t_build = sp_build.duration

    return G1Result(
        dataset=dataset,
        landmarks=landmark_count,
        sigma=log.count,
        t_build=t_build,
        t_fdyn=log.mean_seconds,
        label_entries_dyn=dyn.index.labeling.total_entries(),
        label_entries_rebuilt=rebuilt.labeling.total_entries(),
        settled=log.settled,
        swept=log.swept,
        pruned=log.pruned,
    )


@dataclass(frozen=True)
class ParallelResult:
    """Serial-vs-parallel build plus per-pair-vs-batch query timings."""

    dataset: str
    landmarks: int
    workers: int
    queries: int
    t_build_serial: float
    t_build_parallel: float
    t_query_serial: float  # per-pair ``index.query`` loop
    t_query_batch: float  # one ``query_batch`` call over the same pairs

    @property
    def build_speedup(self) -> float:
        """``T_BUILD / T_BUILD_PAR`` (< 1 on an oversubscribed machine)."""
        if self.t_build_parallel <= 0:
            return float("inf")
        return self.t_build_serial / self.t_build_parallel

    @property
    def batch_speedup(self) -> float:
        """Batch-serving throughput gain over the serial per-pair loop."""
        if self.t_query_batch <= 0:
            return float("inf")
        return self.t_query_serial / self.t_query_batch

    @property
    def batch_throughput(self) -> float:
        """Batched queries answered per second."""
        if self.t_query_batch <= 0:
            return float("inf")
        return self.queries / self.t_query_batch


def run_parallel(
    graph: Graph,
    dataset: str,
    landmark_count: int,
    workers: int = 4,
    queries: int = 2000,
    seed: int = 0,
    policy: str = "auto",
    zipf_alpha: float = 1.0,
) -> ParallelResult:
    """Measure the multi-core build and the batched query path.

    Builds the index serially and with :func:`build_hcl_parallel` (verifying
    the two agree structurally — the determinism guarantee the parallel
    merge makes), then serves a Zipf-skewed workload (real query logs are
    not uniform) both as a per-pair ``index.query`` loop and as one
    :func:`query_batch` call.
    """
    landmarks = select_landmarks(graph, landmark_count, policy=policy, seed=seed)
    tracer = _tracer()
    with tracer.span("parallel.build_serial") as sp_serial:
        index = build_hcl(graph, landmarks)
    with tracer.span("parallel.build_parallel") as sp_parallel:
        par_index = build_hcl_parallel(graph, landmarks, workers)
    if not index.structurally_equal(par_index):
        raise AssertionError("parallel build diverged from the serial index")

    pairs = zipf_query_pairs(graph.n, queries, alpha=zipf_alpha, seed=seed + 2)
    query = index.query
    with tracer.span("parallel.query_serial") as sp_qserial:
        serial_answers = [query(s, t) for s, t in pairs]
    with tracer.span("parallel.query_batch") as sp_qbatch:
        batch_answers = query_batch(index, pairs)
    if batch_answers != serial_answers:
        raise AssertionError("query_batch diverged from the per-pair loop")

    return ParallelResult(
        dataset=dataset,
        landmarks=landmark_count,
        workers=workers,
        queries=queries,
        t_build_serial=sp_serial.duration,
        t_build_parallel=sp_parallel.duration,
        t_query_serial=sp_qserial.duration,
        t_query_batch=sp_qbatch.duration,
    )


def run_g2(
    graph: Graph,
    dataset: str,
    landmark_count: int,
    queries: int = 2000,
    seed: int = 0,
    policy: str = "auto",
) -> G2Result:
    """Goal (G2): cumulative cost of DYN-HCL vs CH-GSP (Table 3 / Fig. 2).

    Cumulative DYN-HCL = initial BUILDHCL + all dynamic updates + all
    ``QUERY`` calls.  Cumulative CH-GSP = CH preprocessing + landmark-space
    setup/maintenance + all GSP queries.  Amortized = cumulative / queries,
    the classical charging scheme of the paper.

    Each engine phase runs inside one tracer span with build/maintain/query
    child spans, so the reported cumulative time is the phase's true
    wall-clock and the parts (plus the span's self-time, reported as
    overhead) sum to it exactly — earlier versions summed three inline
    ``perf_counter`` blocks and silently dropped whatever ran between
    them.
    """
    initial = select_landmarks(graph, landmark_count, policy=policy, seed=seed)
    updates = mixed_update_sequence(graph.n, initial, seed=seed + 1)
    pairs = random_query_pairs(graph.n, queries, seed=seed + 2)
    tracer = _tracer()

    # --- DYN-HCL side -------------------------------------------------
    with tracer.span("g2.dynhcl") as sp_dyn:
        with tracer.span("g2.dynhcl.build") as sp_build:
            dyn = DynamicHCL.build(graph, initial)
        with tracer.span("g2.dynhcl.maintain") as sp_maintain:
            log = dyn.apply_sequence(updates)
        query = dyn.index.query
        with tracer.span("g2.dynhcl.queries") as sp_queries:
            for s, t in pairs:
                query(s, t)

    # --- CH-GSP side --------------------------------------------------
    with tracer.span("g2.chgsp") as sp_gsp:
        with tracer.span("g2.chgsp.pre") as sp_pre:
            engine = CHGSP(graph, initial)
        with tracer.span("g2.chgsp.maintain") as sp_gsp_maintain:
            for update in updates:
                if update.kind == "add":
                    engine.add_landmark(update.vertex)
                else:
                    engine.remove_landmark(update.vertex)
        gsp_query = engine.landmark_constrained_distance
        with tracer.span("g2.chgsp.queries") as sp_gsp_queries:
            for s, t in pairs:
                gsp_query(s, t)

    return G2Result(
        dataset=dataset,
        landmarks=landmark_count,
        sigma=log.count,
        queries=queries,
        cmt_fdyn=sp_dyn.duration,
        cmt_chgsp=sp_gsp.duration,
        t_build=sp_build.duration,
        t_maintain=sp_maintain.duration,
        t_queries=sp_queries.duration,
        t_overhead=sp_dyn.self_seconds,
        t_chgsp_pre=sp_pre.duration,
        t_chgsp_maintain=sp_gsp_maintain.duration,
        t_chgsp_queries=sp_gsp_queries.duration,
        t_chgsp_overhead=sp_gsp.self_seconds,
        settled=log.settled,
        swept=log.swept,
        pruned=log.pruned,
    )
