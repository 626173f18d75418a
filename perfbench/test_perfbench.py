"""The benchmark's deterministic work counts repeat for a seed.

Runs ``run.py --trace 1`` on a fixed number of requests (``--requests``)
of ``social-mixed``, the workload that drives every layer, twice with
one seed and once with another.  Run from the repository root with
``python3 -m pytest perfbench/test_perfbench.py`` (a few minutes; it is
not part of the tier-1 suite).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent

#: The merged batch and 8 single landmark updates, each followed by a
#: read run of 66 requests (the last one cut short).
REQUESTS = 560

#: Counts of work done, as opposed to time taken: they depend only on
#: the seed's request stream and the state it builds.
WORK_COUNTS = (
    "upgrade.settled", "upgrade.entries_added", "upgrade.entries_removed",
    "upgrade.pruned", "downgrade.swept", "downgrade.recover_searches",
    "downgrade.entries_added", "downgrade.entries_removed",
    "batch.settled", "batch.swept", "batch.edge_affected", "batch.rebuilds",
    "wal.records", "wal.bytes_per_op", "epoch.publishes",
    "epoch.incremental_frac", "planvec.g_builds", "planvec.pairs",
    "batchquery.pairs", "plan.query_calls", "refine.calls",
    "refine.improved_frac", "cache.hits", "cache.misses",
    "cache.invalidations", "service.requests",
    "search.settled_per_exact", "search.edges_scanned_per_exact",
    "stream.distinct_pairs",
)


def traced_metrics(seed: int) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "social-mixed",
         "--seed", str(seed), "--seconds", "3600", "--trace", "1",
         "--requests", str(REQUESTS)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_work_counts_repeat_for_a_seed_and_differ_across_seeds():
    first = traced_metrics(1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(first) == sorted(m["name"] for m in declared)
    counts = {name: first[name] for name in WORK_COUNTS}
    again = traced_metrics(1)
    assert {name: again[name] for name in WORK_COUNTS} == counts
    other = traced_metrics(2)
    assert {name: other[name] for name in WORK_COUNTS} != counts
    # Every write-side layer did work within the fixed prefix.
    for name in ("upgrade.settled", "downgrade.swept", "batch.swept",
                 "wal.records", "epoch.publishes", "planvec.g_builds"):
        assert counts[name] > 0, name
