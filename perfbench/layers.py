"""In-memory span tracer wrapped around the public calls of each layer.

The benchmark never enables ``repro.obs`` while it times anything: with it
on, ``QueryPlan.distance`` switches refinement to the observed dict kernel
and the traced run would no longer measure the program the untraced run
measures.  Instead :class:`Tracer` replaces a fixed list of layer entry
points (:func:`layer_calls`) with thin wrappers that record one span per
call: name, start, end, parent span and request id.  Spans stay in memory
and are written out when the run ends; :meth:`Tracer.layer_table` folds
them into per-layer means.  The package's source is not modified: the
wrappers are installed on the imported classes and modules and removed
again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import gzip
import inspect
import json
import random
from collections import defaultdict
from time import perf_counter


def _upgrade_work(args, kwargs, result):
    return {
        "settled": result.settled,
        "entries_added": result.entries_added,
        "entries_removed": result.entries_removed,
        "pruned": result.pruned,
    }


def _downgrade_work(args, kwargs, result):
    return {
        "swept": result.swept,
        "recover_searches": result.recover_searches,
        "entries_added": result.entries_added,
        "entries_removed": result.entries_removed,
    }


def _batch_work(args, kwargs, result):
    return {
        "settled": result.settled,
        "swept": result.swept,
        "edge_affected": result.edge_affected,
        "rebuilds": int(result.strategy == "rebuild"),
    }


def _refine_work(args, kwargs, result):
    # args = (plan, s, t, upper_bound): a useful refinement beats the bound.
    return {"improved": int(result < args[3])}


def _pairs_of(args, kwargs, result):
    return {"pairs": len(result)}


def layer_calls():
    """``(owner, attribute, span name, work extractor)`` for every layer.

    Functions are wrapped where their callers look them up: the landmark
    algorithms and the index build under the names ``repro.core.dynhcl``
    imported them as, so the untimed oracle rebuilds (run with the tracer
    paused) and the merged batch sweep's internal upgrades stay out of
    ``build`` and ``upgrade``.
    """
    from repro import service
    from repro.core import (
        batchquery,
        cache,
        dynhcl,
        epoch,
        plan,
        planvec,
        transaction,
        wal,
    )

    engine = cache.CachedQueryEngine
    return [
        (service.HCLService, "submit", "service", None),
        (engine, "query", "cache", None),
        (engine, "distance", "cache", None),
        (engine, "batch", "cache", None),
        (engine, "add_landmark", "cache", None),
        (engine, "remove_landmark", "cache", None),
        (engine, "apply_batch", "cache", None),
        (batchquery, "query_batch", "batchquery", _pairs_of),
        (plan.QueryPlan, "query", "plan.query", None),
        (plan.QueryPlan, "refine", "refine", _refine_work),
        (plan.QueryPlan, "compile", "plan.compile", None),
        (planvec.VectorBackend, "query_pairs", "planvec.query_pairs",
         _pairs_of),
        # The first g_matrix() access of an epoch's backend builds G.
        (planvec.VectorBackend, "_build_g_matrix", "planvec.g_build", None),
        (epoch.PlanRegistry, "on_commit", "epoch.recompile", None),
        (dynhcl, "build_hcl", "build", None),
        (dynhcl, "upgrade_landmark", "upgrade", _upgrade_work),
        (dynhcl, "downgrade_landmark", "downgrade", _downgrade_work),
        (dynhcl, "_apply_batch", "batch", _batch_work),
        (transaction.IndexTransaction, "__enter__", "txn", None),
        (transaction.IndexTransaction, "__exit__", "txn", None),
        (wal.WriteAheadLog, "append", "wal.append", None),
        (wal.WriteAheadLog, "append_batch", "wal.append", None),
    ]


class Tracer:
    """Records spans from wrapped layer calls while :attr:`active`.

    Single-threaded by design: the benchmark's client is one closed loop,
    and with the default ``"sync"`` epoch recompile every wrapped call
    runs on its thread.
    A span is ``[name, start, end, parent, request, work]``; ``parent``
    is the index of the enclosing span or -1, ``request`` the id of the
    client request that caused it (0 for set-up).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.request = 0
        self.kinds = ["setup"]  # request id -> request kind
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for owner, attr, name, work in layer_calls():
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                wrapped = classmethod(self._wrap(static.__func__, name, work))
            else:
                wrapped = self._wrap(static, name, work)
            self._patches.append((owner, attr, static))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, static = self._patches.pop()
            setattr(owner, attr, static)

    def _wrap(self, func, name, work):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return func(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.request, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def begin_request(self, kind: str) -> None:
        """Start a new client request: later spans carry its id."""
        self.request += 1
        self.kinds.append(kind)

    def share(self, name: str, kind: str | None = None) -> float:
        """Share of ``kind`` requests' time (all requests' for ``None``)
        spent in ``name`` spans."""
        kinds = self.kinds
        inside = whole = 0.0
        for span in self.spans:
            if span[4] == 0 or kind not in (None, kinds[span[4]]):
                continue
            if span[0] == name:
                inside += span[2] - span[1]
            elif span[3] < 0:
                whole += span[2] - span[1]
        return inside / whole if whole else 0.0

    # ------------------------------------------------------------------
    # Folding spans into per-layer numbers
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent never overlap (one thread), so covered
        time is the sum of their durations.
        """
        spans = self.spans
        own = [span[2] - span[1] for span in spans]
        for span in spans:
            parent = span[3]
            if parent >= 0:
                own[parent] -= span[2] - span[1]
        return own

    def layer_table(self, with_setup: bool) -> dict[str, dict]:
        """``name -> {calls, ms, self_ms, work...}`` (ms are per call means).

        ``with_setup=False`` leaves out the spans of the set-up (request
        id 0), so request-path layers are not charged the first compile.
        """
        own = self.self_times()
        table: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                     "work": defaultdict(float)}
        )
        for span, self_s in zip(self.spans, own):
            if not with_setup and span[4] == 0:
                continue
            row = table[span[0]]
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
            if span[5]:
                for key, value in span[5].items():
                    row["work"][key] += value
        out = {}
        for name, row in table.items():
            calls = row["calls"]
            out[name] = {
                "calls": calls,
                "ms": 1e3 * row["total_s"] / calls,
                "self_ms": 1e3 * row["self_s"] / calls,
                "work": dict(row["work"]),
            }
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip) — the raw trace."""
        own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({
                    "id": i,
                    "name": span[0],
                    "start": span[1],
                    "end": span[2],
                    "parent": span[3],
                    "request": span[4],
                    "self_s": self_s,
                    "work": span[5],
                }))
                fh.write("\n")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def counters(session) -> dict[str, float]:
    """The program's own counters that the per-layer table reads."""
    snap = session.svc.metrics()["counters"]
    out = {
        name: snap.get(name, 0)
        for name in ("service.requests", "service.request_failures",
                     "service.shed", "cache.hits", "cache.misses",
                     "cache.invalidations")
    }
    epochs = session.registry.summary()
    out["epoch.publishes"] = epochs["publishes"]
    out["epoch.incremental"] = epochs["incremental"]
    wal = session.svc.wal
    out["wal.size"] = wal.path.stat().st_size if wal is not None else 0
    return out


def search_counts(workload, session, seed, pairs=200) -> dict[str, float]:
    """Count-only pass: observed-kernel search work per exact query.

    Runs after the timed loops, on ``pairs`` exact queries drawn from the
    workload's distribution and sent to the head epoch's plan (no cache,
    so every pair is counted), with ``repro.obs`` enabled — which switches
    refinement to the observed dict kernel, so these are that kernel's
    counts (the timed runs use the plan kernel, which counts nothing).
    """
    from repro import obs

    probe = workload.probe_pairs(random.Random(f"search-{seed}"), pairs)
    plan = session.registry.head_plan()
    with obs.observed() as registry:
        for s, t in probe:
            plan.distance(s, t)
    snap = registry.snapshot()["counters"]
    return {
        "settled": snap.get("search.settled", 0) / pairs,
        "edges": snap.get("search.edges_scanned", 0) / pairs,
    }


def per_layer(tracer, before, after, search) -> dict[str, tuple]:
    """``name -> (value, unit, note)`` for every per-layer metric.

    ``*_ms`` and ``*.ms`` are means per call of the named span (``self``
    variants exclude the direct child spans); work counts attached to an
    operation (settled, swept, entries, ...) are means per operation;
    every other count is a total over the traced loop.  Only ``build``,
    ``plan.compile`` and ``planvec.g_build`` include the set-up's spans.
    """
    table = tracer.layer_table(with_setup=False)
    setup = tracer.layer_table(with_setup=True)
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "work": {}}

    def row(name, source=table):
        return source.get(name, empty)

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    def per(name, key):
        r = row(name)
        return r["work"].get(key, 0.0) / r["calls"] if r["calls"] else 0.0

    out = {}

    def put(name, value, unit, note=""):
        out[name] = (float(value), unit, note)

    svc, cache = row("service"), row("cache")
    put("service.self_ms", svc["self_ms"], "ms", f"n={svc['calls']}")
    put("service.requests", delta("service.requests"), "count")
    put("service.failed", delta("service.request_failures"), "count")
    put("service.shed", delta("service.shed"), "count")
    hits, misses = delta("cache.hits"), delta("cache.misses")
    put("cache.hit_rate", hits / (hits + misses) if hits + misses else 0.0,
        "frac")
    put("cache.hits", hits, "count")
    put("cache.misses", misses, "count")
    put("cache.self_ms", cache["self_ms"], "ms", f"n={cache['calls']}")
    put("cache.invalidations", delta("cache.invalidations"), "count")
    bq = row("batchquery")
    put("batchquery.ms", bq["ms"], "ms", f"n={bq['calls']}")
    put("batchquery.pairs", bq["work"].get("pairs", 0), "count",
        "miss set only")
    pq = row("plan.query")
    put("plan.query_ms", pq["ms"], "ms")
    put("plan.query_calls", pq["calls"], "count")
    qp = row("planvec.query_pairs")
    put("planvec.query_pairs_ms", qp["ms"], "ms", f"n={qp['calls']}")
    put("planvec.pairs", qp["work"].get("pairs", 0), "count")
    gb = row("planvec.g_build", setup)
    put("planvec.g_build_ms", gb["ms"], "ms")
    put("planvec.g_builds", gb["calls"], "count", "includes set-up")
    rf = row("refine")
    put("refine.ms", rf["ms"], "ms")
    put("refine.calls", rf["calls"], "count")
    put("refine.improved_frac", per("refine", "improved"), "frac")
    put("refine.exact_share", tracer.share("refine", "exact"), "frac",
        "of exact request time")
    put("refine.request_share", tracer.share("refine"), "frac",
        "of all request time")
    put("search.settled_per_exact", search["settled"], "count",
        "observed kernel, count-only pass")
    put("search.edges_scanned_per_exact", search["edges"], "count",
        "observed kernel, count-only pass")
    ep = row("epoch.recompile")
    publishes = delta("epoch.publishes")
    put("epoch.recompile_ms", ep["ms"], "ms", f"n={ep['calls']}")
    put("epoch.publishes", publishes, "count")
    put("epoch.incremental_frac",
        delta("epoch.incremental") / publishes if publishes else 0.0, "frac")
    for name, keys in (
        ("upgrade", ("settled", "entries_added", "entries_removed",
                     "pruned")),
        ("downgrade", ("swept", "recover_searches", "entries_added",
                       "entries_removed")),
        ("batch", ("settled", "swept", "edge_affected")),
    ):
        r = row(name)
        put(f"{name}.ms", r["ms"], "ms", f"n={r['calls']}")
        for key in keys:
            put(f"{name}.{key}", per(name, key), "count/op")
    put("batch.rebuilds", row("batch")["work"].get("rebuilds", 0), "count")
    txn = row("txn")
    # Enter and exit are two spans per transaction.
    put("txn.ms", 2 * txn["self_ms"], "ms", f"n={txn['calls'] // 2}")
    wal = row("wal.append")
    put("wal.append_ms", wal["ms"], "ms")
    put("wal.records", wal["calls"], "count")
    put("wal.bytes_per_op",
        delta("wal.size") / wal["calls"] if wal["calls"] else 0.0, "B")
    put("build.ms", row("build", setup)["ms"], "ms")
    compiles = row("plan.compile", setup)
    put("plan.compile_ms", compiles["ms"], "ms", f"n={compiles['calls']}")
    return out
