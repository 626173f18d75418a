"""Benches for the multi-core build and the batched query path.

Run with ``pytest benchmarks/bench_parallel.py -q -s``.  Two measurements:

* serial ``build_hcl`` vs ``build_hcl_parallel`` (speedup tracks the
  machine's core count; on a single-core box the parallel path pays pure
  pool overhead, which is exactly why both numbers are recorded);
* a serial per-pair ``index.query`` loop vs one ``query_batch`` call over
  the same Zipf workload on a ≥10k-vertex generated graph — the batch path
  must clear 2x throughput, which it can only achieve algorithmically
  (dedup + one min-plus reduction over the plan's landmark rows): batches
  are served in-process.
"""

from __future__ import annotations

import time

import pytest

from repro.core import build_hcl, build_hcl_parallel, select_landmarks
from repro.core.batchquery import query_batch
from repro.experiments import run_parallel
from repro.graphs import barabasi_albert
from repro.workloads import zipf_query_pairs

WORKERS = 4


@pytest.fixture(scope="module")
def large_instance():
    """A ≥10k-vertex power-law graph with a standard landmark set."""
    graph = barabasi_albert(12000, 2, seed=7)
    landmarks = select_landmarks(graph, 40, seed=1)
    index = build_hcl(graph, landmarks)
    return graph, landmarks, index


def test_parallel_build_report(large_instance, capsys):
    """Record serial vs parallel build time; verify identical output."""
    graph, landmarks, serial_index = large_instance
    start = time.perf_counter()
    parallel_index = build_hcl_parallel(graph, landmarks, workers=WORKERS)
    t_parallel = time.perf_counter() - start
    start = time.perf_counter()
    rebuilt = build_hcl(graph, landmarks)
    t_serial = time.perf_counter() - start
    assert parallel_index.structurally_equal(serial_index)
    assert rebuilt.structurally_equal(serial_index)
    with capsys.disabled():
        print(
            f"\n[bench_parallel] build: serial {t_serial:.2f}s, "
            f"parallel(w={WORKERS}) {t_parallel:.2f}s, "
            f"speedup {t_serial / t_parallel:.2f}x"
        )


def test_batch_query_throughput(large_instance, capsys):
    """The acceptance gate: batched serving >= 2x the per-pair loop.

    Both timed regions start from the serving state an epoch registry
    publishes — a compiled plan with its ``G`` built — so neither pays a
    one-time build (the per-pair loop would pay the plan compile after
    ``PLAN_COMPILE_AFTER`` queries, the batch the ``G`` build).  The cold
    first batch, which pays both, is timed first and printed so the
    one-time cost stays visible.
    """
    graph, _, index = large_instance
    pairs = zipf_query_pairs(graph.n, 20000, alpha=1.0, seed=3)

    start = time.perf_counter()
    cold_answers = query_batch(index, pairs)
    t_cold = time.perf_counter() - start

    index.compile_plan().build_landmark_distances()

    query = index.query
    start = time.perf_counter()
    serial_answers = [query(s, t) for s, t in pairs]
    t_serial = time.perf_counter() - start

    # One in-process batch: the whole speedup is algorithmic (dedup +
    # the plan's vectorized landmark rows), so it does not depend on the
    # core count.
    start = time.perf_counter()
    batch_answers = query_batch(index, pairs)
    t_batch = time.perf_counter() - start

    assert batch_answers == serial_answers == cold_answers
    speedup = t_serial / t_batch
    throughput = len(pairs) / t_batch
    with capsys.disabled():
        print(
            f"\n[bench_parallel] {len(pairs)} queries: cold first batch "
            f"{t_cold:.2f}s; warm per-pair loop {t_serial:.2f}s, batch "
            f"{t_batch:.2f}s, speedup {speedup:.2f}x, {throughput:,.0f} q/s"
        )
    assert speedup >= 2.0


def test_run_parallel_harness(capsys):
    """The experiments-harness wiring end to end (smaller instance)."""
    graph = barabasi_albert(2000, 2, seed=5)
    result = run_parallel(
        graph, "BA-2k", landmark_count=24, workers=WORKERS, queries=4000
    )
    with capsys.disabled():
        print(
            f"\n[bench_parallel] harness: build {result.t_build_serial:.2f}s "
            f"-> {result.t_build_parallel:.2f}s, batch speedup "
            f"{result.batch_speedup:.2f}x, {result.batch_throughput:,.0f} q/s"
        )
    assert result.queries == 4000
    assert result.t_query_batch > 0
