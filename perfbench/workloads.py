"""Workload definitions: pinned instances, seeded request streams, oracles.

Every workload pins its instance — graph, landmark set, read popularity
ranking and (on ``social-mixed``) write schedule — with fixed generator
seeds, so set-up cost and write cost are the same for every run; the
run's ``--seed`` draws the reads.  One closed-loop client sends one
request at a time through the service's defaults: plan epochs with
``"sync"`` recompile, the ``"auto"`` (numpy vector) backend, no worker
pool, a 65536-entry result cache, and a WAL that fsyncs every record.
A stream is produced lazily, one *step* (a list of requests) at a time,
outside the timed region; steps that choose landmark updates look at
the service's current landmark set, so the stream of a seed is the
same on every run.

BENCHMARK.json lists ``road-exact`` and ``social-mixed``.
``social-read`` (the warm-cache read mix) runs on request only: with its
three set-ups and 500-step warm-up, a third workload does not fit the
benchmark's total time limit at 30-second runs, and ``social-mixed``
carries the same read layers, cold after each write.

Structural edge insertion and deletion are deliberately not driven:
``FullyDynamicHCL`` applies them outside ``IndexTransaction`` (no WAL
record, no epoch publish, stale caches), so they join ``social-mixed``
once they are routed through ``apply_batch``.

Requests are ``(kind, payload, pairs, sample)`` tuples:

* ``query``  — single :class:`ConstrainedDistanceRequest` ``(s, t)``;
* ``exact``  — single :class:`DistanceRequest` ``(s, t)``;
* ``batch``  — :class:`BatchQueryRequest` of constrained pairs;
* ``update`` — single :class:`AddLandmarkRequest` /
  :class:`RemoveLandmarkRequest` ``("add"|"remove", v)``;
* ``batch_update`` — ``submit_batch_reconfigure(adds, removes, edges)``.

``sample`` marks the request whose answer an oracle checks.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from itertools import accumulate
from pathlib import Path

from repro.core.build import build_hcl
from repro.core.dynhcl import DynamicHCL
from repro.core.selection import select_by_degree
from repro.core.serialization import load_checkpoint
from repro.core.wal import scan_wal
from repro.graphs.generators import barabasi_albert, road_grid
from repro.graphs.traversal import dijkstra_distances
from repro.graphs.weights import assign_uniform_integer_weights
from repro.service import DistanceRequest, HCLService
from repro.workloads.updates import mixed_update_sequence

#: The pinned instances: a 20000-vertex BA graph for the label-scan side,
#: a 100x100 road grid for the refinement side.
BA_N, BA_M = 20000, 3
ROAD_ROWS = ROAD_COLS = 100
LANDMARKS = 32
GRAPH_SEED = 1
WEIGHT_SEED = 5
WRITE_SEED = 7
WEIGHT_RANGE = (1, 7)

#: HCLService's default result-cache capacity (reported next to the
#: stream's distinct pairs).
CACHE_CAPACITY = 65536
ZIPF_ALPHA = 1.0

#: Oracle sampling: every Nth request of a kind is checked.
SAMPLE_EVERY = {"query": 25, "exact": 10, "batch": 8}
MAX_BATCH_CHECKS = 16
MAX_EXACT_CHECKS = 24


class Zipf:
    """Zipf(alpha) endpoint popularity over a seeded rank permutation."""

    def __init__(self, n: int, alpha: float, rng: random.Random):
        self.pool = list(range(n))
        rng.shuffle(self.pool)
        self.cum = list(accumulate(1.0 / (r + 1) ** alpha for r in range(n)))

    def pairs(self, rng: random.Random, k: int) -> list[tuple[int, int]]:
        pool, cum = self.pool, self.cum
        draws = rng.choices(pool, cum_weights=cum, k=2 * k)
        out = list(zip(draws[::2], draws[1::2]))
        for i, (s, t) in enumerate(out):
            while s == t:
                s, t = rng.choices(pool, cum_weights=cum, k=2)
            out[i] = (s, t)
        return out


class Uniform:
    """Uniform random endpoints, ``s != t``."""

    def __init__(self, n: int):
        self.n = n

    def pairs(self, rng: random.Random, k: int) -> list[tuple[int, int]]:
        n = self.n
        out = []
        while len(out) < k:
            s, t = rng.randrange(n), rng.randrange(n)
            if s != t:
                out.append((s, t))
        return out


class Session:
    """One set-up service (and its on-disk state) under test."""

    def __init__(self, svc, registry, graph, pristine, workdir):
        self.svc = svc
        self.registry = registry  # the MVCC plan-epoch registry
        self.graph = graph  # the live graph (edge reweights mutate it)
        self.pristine = pristine  # the graph the checkpoint was taken on
        self.workdir = workdir
        self.writes = 0

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "index.ckpt"

    def close(self) -> None:
        wal = self.svc.wal
        if wal is not None:
            wal.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


class Workload:
    """Base: pinned instance, timed set-up, seeded stream, read mix."""

    name = ""
    wal = False
    #: Steps run untimed before measuring (see run.warm_up).
    warmup_steps = 0

    def __init__(self, tmp_root: Path):
        self.tmp_root = tmp_root
        self.graph, self.landmarks = self.instance()
        self.pairs = self.endpoints()

    # -- instance and set-up -------------------------------------------
    def instance(self):
        graph = barabasi_albert(BA_N, BA_M, seed=GRAPH_SEED)
        return graph, select_by_degree(graph, LANDMARKS)

    def setup(self) -> Session:
        """Service build through ready; the caller times this call.

        Covers the index build, epoch enable, the first plan compile and
        the first G-matrix build (a one-pair warm-up batch pulls both).
        """
        workdir = Path(tempfile.mkdtemp(dir=self.tmp_root))
        graph = self.graph.copy()
        wal = workdir / "index.wal" if self.wal else None
        svc = HCLService.build(graph, self.landmarks, wal=wal)
        registry = svc.enable_plan_epochs()
        svc.query_batch([(0, 1)])
        return Session(svc, registry, graph, self.graph, workdir)

    # -- the request stream ---------------------------------------------
    def program(self, session: Session, rng: random.Random):
        """Endless generator of steps (lists of requests) for one loop."""
        self.sample = _Counter()
        return self.steps(session, rng)

    def steps(self, session, rng):
        while True:
            yield self.read_run(rng)

    def endpoints(self):
        """The pair generator of this workload's reads.

        The popularity ranking is part of the pinned instance; the seed
        only drives which pairs are drawn from it.
        """
        return Zipf(self.graph.n, ZIPF_ALPHA, random.Random(GRAPH_SEED))

    def read_run(self, rng):
        """One run of the read mix, shuffled."""
        draw = self.pairs.pairs
        sample = self.sample
        ops = [("query", p, 1, sample("query"))
               for p in draw(rng, self.singles)]
        ops.append(("batch", tuple(draw(rng, self.batch_pairs)),
                    self.batch_pairs, sample("batch")))
        ops += [("exact", p, 1, sample("exact"))
                for p in draw(rng, self.exacts)]
        rng.shuffle(ops)
        return ops

    def probe_pairs(self, rng, k):
        """Pairs for the post-run oracle probe (same distribution)."""
        return self.pairs.pairs(rng, k)


class _Counter:
    """Marks every Nth request of a kind as an oracle sample."""

    def __init__(self):
        self.seen = {}

    def __call__(self, kind: str) -> bool:
        n = self.seen.get(kind, 0) + 1
        self.seen[kind] = n
        return n % SAMPLE_EVERY.get(kind, 1 << 60) == 0


class SocialRead(Workload):
    """Zipf reads on a low-diameter graph, no writes.

    The label scan (``plan`` / ``planvec``), the result cache and the
    service's own overhead dominate; refinement is short and the
    mutation side idles (the WAL is attached but never written).
    """

    name = "social-read"
    wal = True
    singles = 64
    batch_pairs = 512
    exacts = 2
    #: The result cache reaches its steady hit rate (~38%) within ~500
    #: read runs.  The plan's per-endpoint row memo (8192 rows, cleared
    #: whole on overflow) keeps growing and first overflows near 4500
    #: runs, past the end of a 15-second window on a 2-core runner (a
    #: 30-second run reaches it).
    warmup_steps = 500


class RoadExact(Workload):
    """Uniform exact queries on a high-diameter road grid, no writes.

    The mirror image of social-read: refinement on G[V-R] takes ~99% of
    exact-query time, the label scan is tiny and the cache almost never
    hits.
    """

    name = "road-exact"
    singles = 4
    batch_pairs = 128
    exacts = 16

    def endpoints(self):
        return Uniform(self.graph.n)

    def instance(self):
        graph = road_grid(ROAD_ROWS, ROAD_COLS, seed=GRAPH_SEED)
        return graph, select_by_degree(graph, LANDMARKS)


class SocialMixed(SocialRead):
    """The social-read mix on integer weights, interleaved with writes.

    The write schedule is part of the pinned instance (drawn from
    WRITE_SEED): one merged batch of 4 landmark swaps and 8 edge
    reweights, then eight of the paper's mixed update sequences
    (sigma = |R|/4, each from the landmark set current when it starts)
    as single requests, then the next batch, and so on; the seed drives
    the reads.  A run holds the batch and the first singles (20 to 32 in
    30 seconds, as the host's speed varies; the next batch is 64 singles
    away): with a batch costing a sixth of a run, a seeded schedule, or a
    batch that can fall on the end of the run, would make one run's
    throughput depend on where its few writes land.

    One read run follows each write, with one exact query: every batch
    is the first after a publish and pays the lazy G-matrix rebuild,
    every exact query the lazy landmark-free adjacency compile, and
    every single query starts on a flushed cache — what reads cost
    users right after a write.  (Two exacts per run, as in social-read,
    would put the exact median between the cold and warm modes.)
    """

    name = "social-mixed"
    exacts = 1
    warmup_steps = 0
    swaps = 4
    reweights = 8
    sequences_per_batch = 8

    def instance(self):
        graph, landmarks = super().instance()
        weighted = assign_uniform_integer_weights(
            graph, *WEIGHT_RANGE, seed=WEIGHT_SEED
        )
        return weighted, landmarks

    def steps(self, session, rng):
        svc = session.svc
        writes = random.Random(WRITE_SEED)
        edges = [(u, v) for u, v, _ in self.graph.edges()]
        n = self.graph.n
        low, high = WEIGHT_RANGE
        while True:
            current = svc.landmarks
            removes = writes.sample(sorted(current), self.swaps)
            adds = []
            while len(adds) < self.swaps:
                v = writes.randrange(n)
                if v not in current and v not in adds:
                    adds.append(v)
            reweights = []
            for u, v in writes.sample(edges, self.reweights):
                old = session.graph.edge_weight(u, v)
                new = writes.choice(
                    [w for w in range(low, high + 1) if w != old]
                )
                reweights.append((u, v, float(new)))
            yield [("batch_update",
                    (tuple(adds), tuple(removes), tuple(reweights)), 0, False)]
            yield self.read_run(rng)
            for _ in range(self.sequences_per_batch):
                sequence = mixed_update_sequence(
                    n, sorted(svc.landmarks), seed=writes.randrange(1 << 30)
                )
                for update in sequence:
                    yield [("update", (update.kind, update.vertex), 0, False)]
                    yield self.read_run(rng)


WORKLOADS = {w.name: w for w in (SocialRead, RoadExact, SocialMixed)}


# ----------------------------------------------------------------------
# Oracles (all untimed)
# ----------------------------------------------------------------------
def check_constrained(session, samples) -> int:
    """Mismatches of sampled constrained answers against a fresh rebuild.

    ``samples`` are ``(kind, payload, answer)`` from the current landmark
    set; the rebuilt index serves from its authoritative dicts
    (``plan_mode="off"``) and must agree bitwise.
    """
    if not samples:
        return 0
    # What DynamicHCL.rebuild() does, on the service's live graph.
    oracle = build_hcl(session.graph, sorted(session.svc.landmarks))
    oracle.plan_mode = "off"
    bad = 0
    batches = [s for s in samples if s[0] == "batch"]
    singles = [s for s in samples if s[0] != "batch"]
    for kind, payload, answer in singles + batches[-MAX_BATCH_CHECKS:]:
        if kind == "query":
            bad += oracle.query(*payload) != answer
        else:
            bad += [oracle.query(s, t) for s, t in payload] != list(answer)
    return bad


def check_exact(session, samples) -> int:
    """Mismatches of sampled exact answers against plain Dijkstra."""
    bad = 0
    by_source: dict[int, list] = {}
    for _kind, (s, t), answer in samples[-MAX_EXACT_CHECKS:]:
        by_source.setdefault(s, []).append((t, answer))
    for s, targets in by_source.items():
        dist = dijkstra_distances(session.graph, s)
        bad += sum(dist[t] != answer for t, answer in targets)
    return bad


def check_recovery(session, probe_pairs) -> int:
    """Replay checkpoint + WAL; compare landmarks and probe answers.

    This is what ``HCLService.recover`` does minus its cover probe, which
    is left out because it materializes every non-landmark vertex pair
    (``repro.core.invariants.sample_vertex_pairs``) and exhausts memory
    on the 20000-vertex instance.  Returns the number of mismatches (the
    landmark set counts as one).
    """
    svc = session.svc
    svc.wal.close()
    index, checkpoint_seq = load_checkpoint(
        session.pristine.copy(), session.checkpoint_path
    )
    dyn = DynamicHCL(index)
    for record in scan_wal(svc.wal.path).records:
        if record.seq <= checkpoint_seq:
            continue
        if record.kind == "add":
            dyn.add_landmark(record.vertex)
        elif record.kind == "remove":
            dyn.remove_landmark(record.vertex)
        else:
            batch = record.batch
            dyn.apply_batch(batch.adds, batch.removes, batch.edge_updates)
    recovered = HCLService(dyn)
    bad = int(sorted(recovered.landmarks) != sorted(svc.landmarks))
    bad += sum(
        a != b
        for a, b in zip(recovered.query_batch(probe_pairs),
                        svc.query_batch(probe_pairs))
    )
    for pair in probe_pairs[:8]:
        request = DistanceRequest(*pair)
        bad += recovered.submit(request) != svc.submit(request)
    return bad
