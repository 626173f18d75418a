"""Service-level benchmark of ``repro.service.HCLService``.

One closed-loop client (one process, one request in flight, no think
time) drives the service through its public API with the request mix of
one workload (see ``workloads.py`` and BENCHMARK.json), reports
end-to-end metrics, and checks sampled answers with untimed oracles; any
mismatch fails the run.

Usage, from the repository root::

    python3 perfbench/run.py --workload road-exact --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the service up three times (``setup_s`` is the
median), measures ``--seconds`` seconds of request time on the last
set-up and prints the end-to-end metrics; the JSON holds the ones every
workload produces (BENCHMARK.json), while the write latencies and
``error_rate`` are printed in the report only.  ``--trace 1`` measures
half of ``--seconds`` untraced, then the same requests again on a fresh
set-up with the layer tracer of ``layers.py`` on, and prints the
per-layer metrics, including ``trace.overhead_frac`` (the traced
throughput loss on equal work); the raw spans go to ``.perfbench_out/``.
``--requests N`` stops after N requests instead of after ``--seconds``
(fixed work, for the determinism test).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the human-readable report (metric, value, unit, samples).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
KINDS = ("query", "exact", "batch", "update", "batch_update")
READS = ("query", "exact", "batch")
WRITES = ("update", "batch_update")
#: Tail percentiles, highest first: a tail is the highest one with at
#: least ten samples beyond it (the median when there are fewer than 20).
#: The ladder stops at p99: at the sample counts here p99.9 measures
#: collector pauses and host stalls and moves 30% between runs.
LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail is taken in each of this many equal slices of the measured
#: time and the median slice is reported, so that a host stall (shared
#: 2-core runners slow down by 20-40% for seconds at a time) moves a
#: slice or two, not the reported tail.
TAIL_SLICES = 10
#: The end-to-end metrics every workload produces (BENCHMARK.json); the
#: write-side latencies and error_rate are printed in the report only.
E2E_KEYS = (
    "setup_s", "rss_mb", "ops_per_s", "pairs_per_s",
    "query_p50_ms", "query_tail_ms", "exact_p50_ms", "exact_tail_ms",
    "batch_p50_ms", "batch_tail_ms",
)
PROBE_PAIRS = 256


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values):
    """``(p, value)`` of the highest ladder rung with >= 10 samples beyond."""
    n = len(sorted_values)
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p, percentile(sorted_values, p)
    return 50.0, percentile(sorted_values, 50.0)


class Recorder:
    """Per-kind latencies, attempts and failures of one measured loop.

    A failed request (raised ``ReproError``, shed ``Overloaded``,
    ``DegradedResult`` answer, or oracle mismatch) is recorded with an
    infinite latency, so it misses every latency limit.
    """

    def __init__(self):
        self.latency = {kind: array("d") for kind in KINDS}
        self.started = {kind: array("d") for kind in KINDS}  # busy time
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.pairs = 0
        self.completed = 0
        self.busy = 0.0
        self.read_pairs = 0
        self.distinct: set[tuple[int, int]] = set()

    @property
    def requests(self) -> int:
        return sum(self.attempted.values())

    @property
    def failures(self) -> int:
        return sum(self.failed.values())

    def add(self, kind, seconds, ok, pairs):
        self.started[kind].append(self.busy)
        self.busy += seconds
        self.attempted[kind] += 1
        if ok:
            self.latency[kind].append(seconds)
            self.completed += 1
            self.pairs += pairs
        else:
            self.latency[kind].append(math.inf)
            self.failed[kind] += 1

    def fail(self, kind, n=1):
        """Charge ``n`` oracle mismatches to ``kind`` (as infinite waits)."""
        self.failed[kind] += n
        self.latency[kind].extend(array("d", [math.inf] * n))
        self.started[kind].extend(array("d", [self.busy] * n))

    def sliced_tail(self, kind):
        """``(p, value)``: the median over TAIL_SLICES time slices of the
        slice's :func:`tail` (and the median of the slices' rungs)."""
        width = self.busy / TAIL_SLICES
        slices = [[] for _ in range(TAIL_SLICES)]
        for start, value in zip(self.started[kind], self.latency[kind]):
            slices[min(int(start / width), TAIL_SLICES - 1)].append(value)
        tails = [tail(sorted(values)) for values in slices if values]
        return (statistics.median(p for p, _ in tails),
                statistics.median(value for _, value in tails))

    def note_pairs(self, pairs):
        """Track the read stream's pairs (for its cache-relevant shape)."""
        self.read_pairs += len(pairs)
        self.distinct.update((s, t) if s <= t else (t, s) for s, t in pairs)

    def merge(self, other: "Recorder") -> None:
        for kind in KINDS:
            self.attempted[kind] += other.attempted[kind]
            self.failed[kind] += other.failed[kind]

    def summary(self) -> dict[str, tuple[float, str, str]]:
        """``name -> (value, unit, note)`` for the end-to-end metrics."""
        busy = self.busy or math.inf
        out = {
            "ops_per_s": (self.completed / busy, "1/s",
                          f"{self.completed} requests"),
            "pairs_per_s": (self.pairs / busy, "1/s", f"{self.pairs} pairs"),
        }
        for kind in KINDS:
            values = sorted(self.latency[kind])
            if not values:
                continue
            n = len(values)
            out[f"{kind}_p50_ms"] = (1e3 * percentile(values, 50.0), "ms",
                                     f"n={n}")
            if kind != "batch_update":
                p, value = self.sliced_tail(kind)
                out[f"{kind}_tail_ms"] = (
                    1e3 * value, "ms",
                    f"p{p:g}, median of {TAIL_SLICES} slices, n={n}")
        attempted = self.requests
        out["error_rate"] = (self.failures / attempted if attempted else 0.0,
                             "frac", f"{self.failures}/{attempted}")
        return out

    def stream(self) -> dict[str, tuple[float, str, str]]:
        """Distinct pairs vs the cache capacity, and the repeated share."""
        from workloads import CACHE_CAPACITY

        distinct = len(self.distinct)
        repeated = 1.0 - distinct / self.read_pairs if self.read_pairs else 0.0
        return {
            "stream.distinct_pairs": (
                distinct, "count",
                f"cache capacity {CACHE_CAPACITY}, "
                f"{self.read_pairs} pairs read"),
            "stream.repeat_frac": (repeated, "frac", "repeated read pairs"),
        }


def client():
    """The request dispatcher ``execute(session, op) -> answer``.

    The service's request types are bound once here, so a request's
    timed region holds the call and nothing else.
    """
    from repro.service import (
        AddLandmarkRequest,
        BatchQueryRequest,
        ConstrainedDistanceRequest,
        DistanceRequest,
        RemoveLandmarkRequest,
    )

    def execute(session, op):
        kind, payload = op[0], op[1]
        svc = session.svc
        if kind == "query":
            return svc.submit(ConstrainedDistanceRequest(*payload))
        if kind == "exact":
            return svc.submit(DistanceRequest(*payload))
        if kind == "batch":
            return svc.submit(BatchQueryRequest(payload))
        if kind == "update":
            action, v = payload
            if action == "add":
                return svc.submit(AddLandmarkRequest(v))
            return svc.submit(RemoveLandmarkRequest(v))
        adds, removes, edges = payload
        return svc.submit_batch_reconfigure(adds, removes, edges)

    return execute


class Paused:
    """Stop a tracer from recording inside an untimed section."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.active, self.tracer.active = self.tracer.active, False

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = self.active


def warm_up(workload, session, program, tracer=None):
    """Run the workload's warm-up steps untimed and unrecorded.

    Lets the cache and the plan's per-endpoint row memo reach the state a
    long-running service serves from; a warm-up failure aborts the run.
    """
    execute = client()
    with Paused(tracer):
        for _ in range(workload.warmup_steps):
            for op in next(program):
                execute(session, op)
                session.writes += op[0] in WRITES


def measure(session, program, seconds, max_requests, tracer=None,
            track_stream=False):
    """The closed loop: returns the Recorder and the oracle samples.

    Only request time counts toward ``seconds``: producing the next step
    of the stream and the bookkeeping after each request are outside it.
    The loop also runs until every read kind has answered once, so each
    end-to-end metric exists.  Sampled answers are kept with the write
    count they were served under, for :func:`verify`.
    """
    from repro.budget import DegradedResult
    from repro.errors import ReproError

    def degraded(result):
        if isinstance(result, list):
            return any(isinstance(v, DegradedResult) for v in result)
        return isinstance(result, DegradedResult)

    execute = client()
    rec = Recorder()
    samples = []

    def done():
        if rec.requests >= max_requests:
            return True
        return rec.busy >= seconds and all(rec.latency[k] for k in READS)

    while not done():
        for op in next(program):
            kind, payload, pairs, sample = op
            if tracer is not None:
                tracer.begin_request(kind)
            start = perf_counter()
            try:
                result = execute(session, op)
            except ReproError as exc:
                print(f"# {kind} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                result = None
            elapsed = perf_counter() - start
            ok = result is not None and not degraded(result)
            rec.add(kind, elapsed, ok, pairs)
            if kind in WRITES:
                session.writes += ok
            else:
                if track_stream:
                    rec.note_pairs(payload if kind == "batch" else [payload])
                if ok and sample:
                    samples.append((session.writes, kind, payload, result))
            if done():
                break
    return rec, samples


def verify(workload, session, rec, samples, seed):
    """Untimed oracles over the final state; returns the mismatch count.

    Answers sampled since the last write are checked together with a
    probe issued after the loop: a constrained batch against a fresh
    rebuild and exact singles against Dijkstra.  After a run with writes,
    recovery from checkpoint + WAL must reproduce the landmark set and
    the probe.
    Mismatches are charged to the request kind they concern.
    """
    from repro.service import DistanceRequest
    from workloads import check_constrained, check_exact, check_recovery

    probe = workload.probe_pairs(random.Random(f"probe-{seed}"),
                                 PROBE_PAIRS)
    svc = session.svc
    final = [s[1:] for s in samples if s[0] == session.writes]
    constrained = [s for s in final if s[0] != "exact"]
    exact = [s for s in final if s[0] == "exact"]
    answers = svc.query_batch(probe)
    constrained.append(("batch", tuple(probe), answers))
    for pair in probe[:8]:
        exact.append(("exact", pair, svc.submit(DistanceRequest(*pair))))
    bad = {
        "batch": check_constrained(session, constrained),
        "exact": check_exact(session, exact),
    }
    if session.writes:
        bad["update"] = check_recovery(session, probe)
    for kind, n in bad.items():
        if n:
            rec.fail(kind, n)
    print(f"# {workload.name}: oracle checked {len(constrained)} constrained "
          f"and {len(exact)} exact samples after {session.writes} writes; "
          f"mismatches {bad}", file=sys.stderr)
    return sum(bad.values())


def timed_setup(workload, tracer=None):
    """Set up once; returns the session and its set-up seconds."""
    gc.collect()
    start = perf_counter()
    session = workload.setup()
    seconds = perf_counter() - start
    if session.svc.wal is not None:
        with Paused(tracer):
            session.svc.checkpoint(session.checkpoint_path)
    return session, seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload, args):
    """``--trace 0``: end-to-end metrics; set-up runs SETUP_REPS times."""
    setups = []
    for _ in range(SETUP_REPS - 1):
        session, seconds = timed_setup(workload)
        setups.append(seconds)
        session.close()
    session, seconds = timed_setup(workload)
    setups.append(seconds)
    try:
        program = workload.program(session, random.Random(args.seed))
        warm_up(workload, session, program)
        rec, samples = measure(session, program, args.seconds, args.requests)
        rss = peak_rss_mb()
        mismatches = verify(workload, session, rec, samples, args.seed)
    finally:
        session.close()
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)}"),
        "rss_mb": (rss, "MB", "peak"),
        **rec.summary(),
    }
    return metrics, E2E_KEYS, rec, mismatches


def run_traced(workload, args):
    """``--trace 1``: the loop untraced, then traced; per-layer metrics.

    The untraced loop measures half of ``--seconds``, so a traced run
    takes about as long as an untraced one; the traced loop replays the
    same requests (same seed, same count), so the two throughputs give
    the tracer's overhead on equal work.
    """
    from layers import Tracer, counters, per_layer, search_counts

    session, _ = timed_setup(workload)
    try:
        program = workload.program(session, random.Random(args.seed))
        warm_up(workload, session, program)
        plain, samples = measure(session, program, args.seconds / 2,
                                 args.requests)
        mismatches = verify(workload, session, plain, samples, args.seed)
    finally:
        session.close()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        session, _ = timed_setup(workload, tracer)
        try:
            program = workload.program(session, random.Random(args.seed))
            warm_up(workload, session, program, tracer)
            before = counters(session)
            rec, samples = measure(session, program, math.inf,
                                   plain.requests, tracer, track_stream=True)
            tracer.active = False
            after = counters(session)
            search = search_counts(workload, session, args.seed)
            mismatches += verify(workload, session, rec, samples, args.seed)
        finally:
            tracer.active = False
            session.close()
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, before, after, search)
    untraced = plain.summary()["ops_per_s"][0]
    traced = rec.summary()["ops_per_s"][0]
    metrics["trace.overhead_frac"] = (
        1.0 - traced / untraced, "frac",
        f"traced {traced:.1f}/s vs untraced {untraced:.1f}/s")
    metrics.update(rec.stream())
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{workload.name}-seed{args.seed}.spans.jsonl.gz")
    rec.merge(plain)
    return metrics, tuple(metrics), rec, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=1 << 62,
                        help="stop after this many requests (fixed work)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        workload = WORKLOADS[args.workload](Path(tmp))
        runner = run_traced if args.trace else run_plain
        metrics, keys, rec, mismatches = runner(workload, args)
    for name, (value, unit, note) in metrics.items():
        print(f"{args.workload} {name:<32} {value:>14.6g} {unit:<9} {note}")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": rec.requests,
        "failed": rec.failures,
        "metrics": {
            key: {"value": metrics[key][0], "unit": metrics[key][1]}
            for key in keys
        },
    }))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
