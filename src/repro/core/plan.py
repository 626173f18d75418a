"""Compiled, read-optimized query plans for an HCL index.

The dict-backed :class:`~repro.core.labeling.Labeling` /
:class:`~repro.core.highway.Highway` pair is the *authoritative*
representation: transactional, journaled, cheap to mutate entry-by-entry
— exactly what ``UPGRADE-LMK`` / ``DOWNGRADE-LMK`` need.  It is also the
wrong shape for serving: every ``QUERY(s, t)`` hashes landmark ids in the
inner double loop, and every exact-distance refinement allocates two
fresh dicts plus an O(n) exclusion mask.  Hub-labeling practice separates
the mutable build-time structure from a frozen, cache-friendly serving
representation (Storandt 2022; BatchHL makes the same split for
batch-dynamic labelings), and :class:`QueryPlan` is that second
representation here:

* per-vertex label rows flattened into CSR-style parallel arrays
  (``array('q')`` offsets + ``array('q')`` landmark slots +
  ``array('d')`` distances, slot-sorted within each row);
* landmark ids interned into dense slots ``0..k-1`` (sorted id order);
* ``δ_H`` materialized as a dense ``k × k`` ``array('d')`` row-major
  matrix — an indexed load instead of two dict probes;
* the landmark exclusion mask prebuilt once;
* an epoch-stamped :class:`SearchWorkspace` whose preallocated
  distance/generation arrays replace the per-query dict pair of
  :func:`~repro.graphs.traversal.bounded_bidirectional_distance_masked`
  (a generation counter makes "reset" an integer bump, not an O(n)
  clear);
* a landmark-free compiled adjacency ``adj[v] = ((w, u), ...)`` over
  non-landmark neighbors, so the refinement search stops re-testing the
  mask on every edge scan (and never even sees the high-degree
  landmark hubs).

Every plan answer is **bitwise-equal** to the dict path, not just close:

* ``QUERY`` minimizes over the same candidate set with the same float
  association ``(d_i + δ) + d_j`` — ``min`` is order-independent over a
  fixed value set, so iterating rows in slot order instead of dict
  insertion order cannot change the result;
* the memoized per-endpoint row ``g_v[slot] = min_i (d_i + δ)`` is only
  built/used for the endpoint the serial loop scans *outer* (the smaller
  label, ties keeping the first argument), the same guarantee
  ``repro.core.planvec`` documents: float addition is monotone, so
  ``min_j (min_i (d_i + δ)) + d_j`` equals the double-loop minimum
  bitwise;
* the workspace refinement kernel keeps the dict kernel's alternation
  and relaxation order (``gen[v] != epoch`` plays ``v not in dist``),
  and filtering landmarks out of the compiled adjacency only removes
  edge scans the dict kernel skips anyway;
* on integer-weighted graphs the kernel adds ALT bounds (Goldberg &
  Harrelson, SODA 2005) read from the exact landmark distances the plan
  already holds: it returns the upper bound unsearched when the lower
  bound certifies it, and, when that bound is strong, never pushes a
  vertex whose tentative distance plus its lower bound to the far
  endpoint cannot beat the current best.
  Integer sums are exact in floating point, so the certified or pruned
  answer is the same float the unpruned search returns.

The kernel returns plain work counts, which observed queries record as
``search.*`` counters.  Budgeted queries dispatch to the dict budgeted
twin (:func:`_bounded_bidirectional_masked_budgeted`) with the plan's
prebuilt mask, so ``DegradedResult`` semantics and fault-injection hooks
are inherited rather than re-implemented.

Plans are immutable snapshots.  Validity is a revision-stamp compare:
``Labeling``, ``Highway`` and ``Graph`` each carry a ``_rev`` counter
bumped by every mutator (and by transaction rollback), and
:meth:`QueryPlan.matches` checks all three in O(1).  ``HCLIndex``
recompiles lazily — the authoritative dicts never wait on the plan.
"""

from __future__ import annotations

import itertools
import math
from array import array
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from ..budget import Budget
from ..errors import DeadlineExceeded
from ..graphs.traversal import (
    _bounded_bidirectional_masked_budgeted,
    _record_search,
)
from ..obs import OBS
from .planvec import VectorBackend, numpy_available

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import HCLIndex

INF = math.inf

__all__ = ["QueryPlan", "SearchWorkspace"]

#: Build a memoized ``g_v`` row for an endpoint once it has appeared in
#: this many plan queries (the row costs ``|L(v)| · k`` float ops and
#: saves ``|L(s)| · |L(t)| - |L(t)|`` per reuse; Zipf-skewed workloads
#: break even after a handful of repeats).
ROW_HOT_THRESHOLD = 4

#: Memoized-row cache bound: on overflow both the rows and the frequency
#: counts are dropped, so a long-lived plan serving an adversarially wide
#: endpoint distribution stays O(cap · k) instead of O(n · k).
G_ROW_CACHE_CAP = 8192

#: The refinement prunes only when the ALT lower bound reaches this share
#: of the upper bound.  Evaluating the potential costs about as much as
#: the rest of an edge relaxation, and a weak bound cuts too few pushes
#: to pay for it (see DESIGN.md §8).
ALT_PRUNE_RATIO = 0.75

#: Process-wide monotone plan ids.  A version never repeats within a
#: process, so a recompiled plan gets a fresh version (and a fresh
#: shared-memory segment identity) and can never pass for a stale one.
_PLAN_VERSIONS = itertools.count(1)


class SearchWorkspace:
    """Preallocated state for the bounded bidirectional refinement.

    ``dist_f``/``dist_b`` are dense float arrays; an entry is only
    meaningful when the matching ``gen_f``/``gen_b`` cell equals the
    current ``epoch``, so "clearing" the workspace between queries is one
    integer increment.  (After ~2**63 queries the epoch would wrap; at a
    billion queries per second that is three centuries of uptime.)
    """

    __slots__ = ("n", "epoch", "dist_f", "dist_b", "gen_f", "gen_b")

    def __init__(self, n: int):
        self.n = n
        self.epoch = 0
        self.dist_f = [INF] * n
        self.dist_b = [INF] * n
        self.gen_f = [0] * n
        self.gen_b = [0] * n


def _landmark_free(nbrs, mask, v):
    """Row ``v`` of the compiled adjacency: ``((w, u), ...)`` over ``u ∉ R``."""
    if mask[v]:
        return ()
    return tuple((w, u) for u, w in nbrs if not mask[u])


def _patch_adjacency(adj, graph, mask, changed, edges):
    """``adj`` after the landmarks in ``changed`` joined or left ``R`` and
    the edges at the vertices ``edges`` were reweighted.

    Only the rows of the changed landmarks, of their neighbours and of
    the reweighted edges' endpoints can differ; they are rebuilt exactly
    as a full compile builds them, into a copy (the prior plan may still
    be serving).
    """
    neighbors = graph.neighbors
    rows = set(changed)
    rows.update(edges)
    for r in changed:
        rows.update(u for u, _ in neighbors(r))
    adj = list(adj)
    for v in rows:
        adj[v] = _landmark_free(neighbors(v), mask, v)
    return adj


def _integral_weights(graph, vertices) -> bool:
    """Whether every edge weight at ``vertices`` is a whole number."""
    if graph.unweighted:
        return True
    neighbors = graph.neighbors
    # Few distinct weights in practice: test each once.
    weights = {w for v in vertices for _, w in neighbors(v)}
    return all(float(w).is_integer() for w in weights)


class QueryPlan:
    """A frozen, flat compilation of one ``HCLIndex`` snapshot.

    Build with :meth:`compile` (or ``HCLIndex.compile_plan()``).  The
    canonical state is the parallel-array form (picklable, shared with
    shard workers); the per-vertex row tuples, highway row lists and
    compiled adjacency are interpreter-friendly views derived from it.
    """

    __slots__ = (
        # canonical arrays (pickled)
        "n",
        "k",
        "landmark_ids",
        "label_offsets",
        "label_slots",
        "label_dists",
        "hw",
        # derived read views
        "slot_of",
        "mask",
        "_rows",
        "_hwrows",
        # lazy serving state
        "_adj",
        "_integral",
        "_ws",
        "_alt_src",
        "_g_rows",
        "_g_freq",
        # densified canonical arrays of an incremental plan (memoized)
        "_canonical",
        # optional accelerated backends (lazy, never pickled)
        "plan_version",
        "_vec",
        # how _patch derived _vec's G: "patched" or "hw_moved" (rebuilt)
        "g_path",
        "_shm",
        # validity stamp (source objects + their revisions)
        "_graph",
        "_labeling",
        "_highway",
        "_stamp",
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __init__(self, n, k, landmark_ids, offsets, slots, dists, hw):
        self.n = n
        self.k = k
        self.landmark_ids = landmark_ids
        self.label_offsets = offsets
        self.label_slots = slots
        self.label_dists = dists
        self.hw = hw
        self._graph = None
        self._labeling = None
        self._highway = None
        self._stamp = None
        self.plan_version = next(_PLAN_VERSIONS)
        self._canonical = None
        self._vec = None
        self.g_path = None
        self._shm = None
        self._build_views()

    def _build_views(self) -> None:
        """Derive the interpreter-friendly views from the canonical arrays.

        The hot loops read Python lists and tuples, not the arrays: an
        ``array('d')`` getitem boxes a fresh float object per access,
        which erases the layout win in CPython (measured), while list
        entries are already boxed once at compile time.
        """
        k = self.k
        self.slot_of = {r: i for i, r in enumerate(self.landmark_ids)}
        mask = [False] * self.n
        for r in self.landmark_ids:
            mask[r] = True
        self.mask = mask
        offsets = self.label_offsets
        slots = self.label_slots
        dists = self.label_dists
        rows = []
        for v in range(self.n):
            lo, hi = offsets[v], offsets[v + 1]
            rows.append(
                tuple((dists[i], slots[i]) for i in range(lo, hi))
            )
        self._rows = rows
        hwlist = self.hw.tolist()
        self._hwrows = [hwlist[i * k : (i + 1) * k] for i in range(k)]
        self._adj = None
        self._integral = False
        self._ws = None
        self._alt_src = None
        self._g_rows = {}
        self._g_freq = {}

    @classmethod
    def compile(cls, index: "HCLIndex") -> "QueryPlan":
        """Compile a plan from the index's current dict state."""
        if OBS.enabled:
            with OBS.span("plan.compile"):
                plan = cls._compile(index)
            OBS.registry.counter("plan.compiles").inc()
            OBS.registry.gauge("plan.landmarks").set(plan.k)
            return plan
        return cls._compile(index)

    @classmethod
    def compile_incremental(
        cls, prior: "QueryPlan", index: "HCLIndex", affected, edges=()
    ) -> "QueryPlan | None":
        """Compile the next plan by patching ``prior``, or ``None``.

        ``affected`` is the set of label rows that changed since ``prior``
        was compiled (a transaction compares its undo journal's saved
        rows with the live ones), ``edges`` the endpoints of edges
        reweighted since.  Only those rows are rebuilt; every other
        per-vertex row tuple is shared *structurally* with the prior
        plan, and the vector backend is patched from the prior's
        (:meth:`repro.core.planvec.VectorBackend.patched`), so the cost
        is ``O(|affected| · row + k²)`` Python work plus array copies
        instead of ``O(n · row)``.

        Slot stability makes the sharing sound: surviving landmarks keep
        their ``prior`` slots, removed landmarks leave ``-1`` holes in
        ``landmark_ids`` (their ``δ_H`` rows and columns turn to ``inf``),
        and added landmarks fill holes in sorted order before appending.
        An unaffected row can never reference a hole — ``DOWNGRADE-LMK``
        rewrites every row that contained the removed landmark, so all
        such rows are in ``affected`` by construction.  Bitwise equality
        with a full compile holds because ``min`` over the fixed
        candidate set is order-independent: slot numbering only permutes
        the iteration order.

        Returns ``None`` (caller falls back to :meth:`compile`) when the
        patch would be unsound or not worth it: vertex count changed,
        ``prior`` tracks different source objects, or holes would exceed
        a quarter of the slot space.  Edge-weight revisions of the graph
        do *not* force a full compile — the batch-dynamic repair rewrites
        every label/highway row a weight change invalidates, so those
        rows arrive via ``affected``; the graph-derived adjacency is
        patched at ``edges``.
        """
        labeling = index.labeling
        highway = index.highway
        graph = index.graph
        n = labeling.n
        if (
            prior._stamp is None
            or n != prior.n
            or labeling is not prior._labeling
            or highway is not prior._highway
            or graph is not prior._graph
        ):
            return None
        ids = list(prior.landmark_ids)
        old_set = {r for r in ids if r >= 0}
        new_set = highway.landmarks
        for i, r in enumerate(ids):
            if r >= 0 and r not in new_set:
                ids[i] = -1
        holes = [i for i, r in enumerate(ids) if r < 0]
        for r in sorted(new_set - old_set):
            if holes:
                ids[holes.pop(0)] = r
            else:
                ids.append(r)
        if ids and len(holes) * 4 > len(ids):
            return None
        if OBS.enabled:
            with OBS.span("plan.compile_incremental"):
                plan = cls._patch(prior, index, affected, edges, ids)
            OBS.registry.counter("plan.incremental_compiles").inc()
            return plan
        return cls._patch(prior, index, affected, edges, ids)

    @classmethod
    def _patch(cls, prior, index, affected, edges, ids) -> "QueryPlan":
        labeling = index.labeling
        highway = index.highway
        graph = index.graph
        n = labeling.n
        k = len(ids)
        slot_of = {r: i for i, r in enumerate(ids) if r >= 0}

        rows = list(prior._rows)
        labels = labeling._labels
        slot = slot_of.__getitem__
        for v in affected:
            label = labels[v]
            order = sorted(label, key=slot)
            rows[v] = tuple(
                zip(map(label.__getitem__, order), map(slot, order))
            )

        hw = array("d", [INF]) * (k * k)
        hwrows = []
        for i, r in enumerate(ids):
            base = i * k
            if r >= 0:
                hrow = highway.row(r)
                for j, r2 in enumerate(ids):
                    if r2 >= 0:
                        hw[base + j] = hrow.get(r2, INF)
            hwrows.append(hw[base : base + k].tolist())

        mask = [False] * n
        for r in ids:
            if r >= 0:
                mask[r] = True

        plan = cls.__new__(cls)
        plan.n = n
        plan.k = k
        plan.landmark_ids = array("q", ids)
        # The dense canonical arrays are pickle/shm/audit-only state:
        # densified lazily (see canonical_arrays) instead of paying
        # O(n · row) on every epoch.
        plan.label_offsets = None
        plan.label_slots = None
        plan.label_dists = None
        plan._canonical = None
        plan.hw = hw
        plan.slot_of = slot_of
        plan.mask = mask
        plan._rows = rows
        plan._hwrows = hwrows
        # The compiled adjacency depends on (graph, mask): rebuild the
        # rows around changed landmarks and reweighted edges.  A graph
        # that moved without journaled reweights drops it (the next
        # exact query recompiles it).
        adj = prior._adj
        integral = prior._integral
        if adj is not None:
            if getattr(graph, "_rev", 0) != prior._stamp[2] and not edges:
                adj = None
            else:
                changed = prior.slot_of.keys() ^ slot_of.keys()
                if changed or edges:
                    adj = _patch_adjacency(adj, graph, mask, changed, edges)
                if edges:
                    # An integral graph stays integral unless a new
                    # weight is fractional; a fractional one may have
                    # lost its last fractional edge.
                    integral = _integral_weights(
                        graph, edges if integral else range(n)
                    )
        plan._adj = adj
        plan._integral = integral if adj is not None else False
        # A prior that refined gets a successor ready to refine: its own
        # workspace (readers may still search on the prior's), allocated
        # here so the O(n) cost stays off the first exact read.
        plan._ws = SearchWorkspace(n) if prior._ws is not None else None
        plan._alt_src = None
        plan._g_rows = {}
        plan._g_freq = {}
        plan.plan_version = next(_PLAN_VERSIONS)
        plan._vec = None
        plan.g_path = None
        vec = prior._vec
        if vec is not None and vec._G is not None:
            plan._vec, patched = vec.patched(
                rows, affected, ids, prior.landmark_ids, hw
            )
            plan.g_path = "patched" if patched else "hw_moved"
        plan._shm = None
        plan._graph = graph
        plan._labeling = labeling
        plan._highway = highway
        plan._stamp = (
            labeling._rev,
            highway._rev,
            getattr(graph, "_rev", 0),
            n,
        )
        return plan

    @classmethod
    def _compile(cls, index: "HCLIndex") -> "QueryPlan":
        labeling = index.labeling
        highway = index.highway
        graph = index.graph
        n = labeling.n
        landmark_ids = sorted(highway.landmarks)
        k = len(landmark_ids)
        slot_of = {r: i for i, r in enumerate(landmark_ids)}

        # "q", not "l": C long is 4 bytes on LLP64 (64-bit Windows),
        # where cumulative label offsets would wrap past 2^31 entries —
        # and the shared-memory layout assumes uniform 8-byte cells.
        offsets = array("q", [0])
        slots = array("q")
        dists = array("d")
        for v in range(n):
            row = sorted(
                (slot_of[r], d) for r, d in labeling.row_items(v)
            )
            for s, d in row:
                slots.append(s)
                dists.append(d)
            offsets.append(len(slots))

        hw = array("d", [INF]) * (k * k)
        for i, r in enumerate(landmark_ids):
            row = highway.row(r)
            base = i * k
            for j, r2 in enumerate(landmark_ids):
                hw[base + j] = row.get(r2, INF)

        plan = cls(n, k, array("q", landmark_ids), offsets, slots, dists, hw)
        plan._graph = graph
        plan._labeling = labeling
        plan._highway = highway
        plan._stamp = (
            labeling._rev,
            highway._rev,
            getattr(graph, "_rev", 0),
            n,
        )
        return plan

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def matches(self, index: "HCLIndex") -> bool:
        """Whether this plan still reflects ``index`` exactly (O(1)).

        Identity of the three source objects plus their revision
        counters; any mutator (or transaction rollback) bumps a counter,
        so a stale plan can never satisfy this.  Unpickled plans (and
        shared-memory attachments) carry no stamp and never match.
        """
        labeling = index.labeling
        return (
            self._stamp is not None
            and labeling is self._labeling
            and index.highway is self._highway
            and index.graph is self._graph
            and self._stamp
            == (
                labeling._rev,
                index.highway._rev,
                getattr(index.graph, "_rev", 0),
                labeling.n,
            )
        )

    # ------------------------------------------------------------------
    # Accelerated backends (vectorized kernel, shared-memory transport)
    # ------------------------------------------------------------------
    def vector_backend(self):
        """The plan's numpy min-plus backend, or ``None`` without numpy.

        ``None`` whenever numpy does not import in this process, even if
        a backend was built earlier — so patching numpy out moves every
        caller onto the flat kernel.

        Indexed by the plan's slots.  An incremental plan usually gets
        its backend patched from the prior epoch's; otherwise it is built
        lazily — zero-copy over the canonical arrays of a full compile,
        from the row tuples of an incremental plan — and cached.  Answers
        are bitwise-identical to :meth:`query` — see
        :mod:`repro.core.planvec` for the argument.
        """
        if not numpy_available():
            return None
        vec = self._vec
        if vec is None:
            if self.label_offsets is None:
                vec = VectorBackend.from_rows(
                    self.n, self.k, self._rows, self.hw
                )
            else:
                vec = VectorBackend(self.canonical_arrays())
            self._vec = vec
        return vec

    def shared_buffers(self):
        """This plan's owned shared-memory segment, or ``None``.

        Created on first use (one copy of the canonical arrays into a
        named segment), cached thereafter; returns ``None`` when shared
        memory is unavailable or the segment has already been unlinked —
        callers fall back to pickling the canonical arrays.

        A cached segment that was **quarantined** (failed a CRC check,
        :mod:`repro.core.shm`) is unlinked and replaced with a fresh
        segment republished from the canonical arrays — those live in
        ordinary heap memory and are unaffected by segment corruption.
        """
        shm = self._shm
        if shm is not None and not shm.unlinked and shm.quarantined:
            from .shm import COUNTS

            try:
                shm.unlink()
            except Exception:  # pragma: no cover - teardown races
                pass
            self._shm = shm = None
            COUNTS["republished"] += 1
        if shm is None:
            from .shm import SharedPlanBuffers

            shm = SharedPlanBuffers.create(
                self.canonical_arrays(), self.plan_version
            )
            if shm is None:
                return None
            self._shm = shm
        elif shm.unlinked:
            return None
        return shm

    def release_shared(self) -> None:
        """Unlink the owned segment, if any (idempotent, never raises).

        Called by :meth:`repro.core.epoch.PlanRegistry._drop_locked` when
        the owning epoch retires and drains; attached workers keep their
        existing mappings until they detach.
        """
        shm = self._shm
        if shm is not None:
            try:
                shm.unlink()
            except Exception:  # pragma: no cover - teardown races
                pass

    # ------------------------------------------------------------------
    # Pickling (canonical arrays only; views are rebuilt on arrival)
    # ------------------------------------------------------------------
    def __reduce__(self):
        return (QueryPlan, self.canonical_arrays())

    def canonical_arrays(self):
        """The plan's canonical 7-tuple ``(n, k, ids, offsets, slots, dists, hw)``.

        Dense, hole-free, slot-sorted — the exact wire form
        :meth:`__reduce__` pickles, :class:`QueryPlan`'s constructor
        accepts and the shared-memory segment carries to fleet workers
        (:mod:`repro.shard.worker`); incremental plans are densified once
        via :meth:`_canonical_args`.
        """
        if self.label_offsets is None:
            canonical = self._canonical
            if canonical is None:
                canonical = self._canonical = self._canonical_args()
            return canonical
        return (
            self.n,
            self.k,
            self.landmark_ids,
            self.label_offsets,
            self.label_slots,
            self.label_dists,
            self.hw,
        )

    def _canonical_args(self):
        """Densify an incrementally-patched plan for pickling.

        Incremental plans (see :meth:`compile_incremental`) keep ``-1``
        holes in ``landmark_ids`` and no flat label arrays; pickling
        compacts to the same canonical form :meth:`compile` produces —
        sorted dense landmark ids, slot-sorted CSR arrays — so the wire
        format is identical regardless of how the plan was built.  The
        plan is immutable, so :meth:`canonical_arrays` memoizes the result.
        """
        old_slot = self.slot_of
        ids = sorted(old_slot)
        k = len(ids)
        remap = [-1] * self.k
        for i, r in enumerate(ids):
            remap[old_slot[r]] = i
        offsets = array("q", [0])  # int64 everywhere; see _compile
        slots = array("q")
        dists = array("d")
        for row in self._rows:
            for s, d in sorted((remap[s], d) for d, s in row):
                slots.append(s)
                dists.append(d)
            offsets.append(len(slots))
        hw_old = self.hw
        k_old = self.k
        hw = array("d", [INF]) * (k * k)
        for i, r in enumerate(ids):
            oi = old_slot[r]
            for j, r2 in enumerate(ids):
                hw[i * k + j] = hw_old[oi * k_old + old_slot[r2]]
        return (self.n, k, array("q", ids), offsets, slots, dists, hw)

    # ------------------------------------------------------------------
    # Constrained QUERY
    # ------------------------------------------------------------------
    def query(self, s: int, t: int, budget: Budget | None = None) -> float:
        """``QUERY(s, t)`` — bitwise-equal to :meth:`HCLIndex.query`."""
        rows = self._rows
        rs = rows[s]
        rt = rows[t]
        if not rs or not rt:
            return INF
        if budget is not None:
            budget.charge(min(len(rs), len(rt)))
        if len(rs) > len(rt):
            outer_v, outer, inner = t, rt, rs
        else:
            outer_v, outer, inner = s, rs, rt
        g = self._g_rows.get(outer_v)
        if g is None:
            freq = self._g_freq
            count = freq.get(outer_v, 0) + 1
            if count >= ROW_HOT_THRESHOLD:
                g = self._build_g_row(outer_v)
            else:
                freq[outer_v] = count
        if g is not None:
            best = INF
            for dj, sj in inner:
                d = g[sj] + dj
                if d < best:
                    best = d
            return best
        hwrows = self._hwrows
        best = INF
        for di, si in outer:
            hwrow = hwrows[si]
            for dj, sj in inner:
                d = di + hwrow[sj] + dj
                if d < best:
                    best = d
        return best

    def _build_g_row(self, v: int) -> list[float]:
        """``g_v[slot] = min_i d_i + δ_H(r_i, slot)`` over ``L(v)``."""
        g_rows = self._g_rows
        if len(g_rows) >= G_ROW_CACHE_CAP:
            g_rows.clear()
            self._g_freq.clear()
        g = g_rows[v] = self._landmark_row(v)
        return g

    def _landmark_row(self, v: int) -> list[float]:
        """``g_v`` by slot: ``g_v[j]`` is ``d(r_j, v)`` (``inf`` on holes)."""
        k = self.k
        g = [INF] * k
        hwrows = self._hwrows
        for di, si in self._rows[v]:
            hwrow = hwrows[si]
            for j in range(k):
                d = di + hwrow[j]
                if d < g[j]:
                    g[j] = d
        return g

    def query_many(self, keys) -> list[float]:
        """``QUERY`` over ``(s, t)`` key pairs, in order.

        The one bounds kernel of every batch, in-process or on a fleet
        worker: one min-plus reduction of the :class:`VectorBackend` when
        numpy imports, the flat :meth:`query` loop (row heat pre-seeded
        with the keys' endpoints) otherwise.  Each answer is
        bitwise-equal to ``query(s, t)``.
        """
        vec = self.vector_backend()
        if vec is not None:
            return vec.query_many(keys)
        self.note_endpoints(keys)
        query = self.query
        return [query(s, t) for s, t in keys]

    def note_endpoints(self, keys) -> None:
        """Pre-seed row-heat counts with a batch's endpoint multiplicities."""
        freq = self._g_freq
        if len(freq) >= 4 * G_ROW_CACHE_CAP:
            self._g_rows.clear()
            freq.clear()
        for s, t in keys:
            freq[s] = freq.get(s, 0) + 1
            freq[t] = freq.get(t, 0) + 1

    def query_from_landmark(self, r: int, u: int) -> float:
        """Mirror of :meth:`HCLIndex.query_from_landmark` (``r ∈ R``)."""
        hwrow = self._hwrows[self.slot_of[r]]
        best = INF
        for dj, sj in self._rows[u]:
            d = hwrow[sj] + dj
            if d < best:
                best = d
        return best

    # ------------------------------------------------------------------
    # Exact distance
    # ------------------------------------------------------------------
    def distance(
        self,
        s: int,
        t: int,
        budget: Budget | None = None,
        strict: bool = False,
        _what: str = "distance",
        ub: float | None = None,
    ) -> float:
        """Exact ``d(s, t)`` — bitwise-equal to :meth:`HCLIndex.distance`.

        Same branch structure; with a budget the refinement dispatches to
        the dict budgeted kernel with the plan's prebuilt mask, so
        degraded-answer semantics are exactly the dict path's.  With
        tracing enabled the plan's own kernel serves and its work counts
        become the ``search.*`` counters, plus ``search.certified`` for
        refinements the ALT lower bound skipped.

        ``ub`` short-circuits the constrained upper bound with a value
        the caller already computed (:func:`repro.core.batchquery.query_batch`
        bounds whole batches at once); its label work is then not charged
        to ``budget``.  The bound is bitwise-equal to :meth:`query`, so
        the refinement — and therefore the answer — is unchanged.
        """
        if s == t:
            return 0.0
        mask = self.mask
        s_is_lmk = mask[s]
        t_is_lmk = mask[t]
        if s_is_lmk and t_is_lmk:
            slot_of = self.slot_of
            return self._hwrows[slot_of[s]][slot_of[t]]
        if s_is_lmk:
            return self.query_from_landmark(s, t)
        if t_is_lmk:
            return self.query_from_landmark(t, s)
        if ub is None:
            ub = self.query(s, t, budget)
        if budget is None:
            if OBS.enabled:
                best, settled, edges, pushes, certified = self._search(
                    s, t, ub
                )
                OBS.registry.counter("search.bidirectional.calls").inc()
                OBS.registry.counter("search.certified").inc(int(certified))
                _record_search(settled, edges, pushes)
                return best
            return self.refine(s, t, ub)
        if budget.check():
            if strict:
                raise DeadlineExceeded(
                    f"{_what}({s}, {t}) exceeded its budget before "
                    f"refinement ({budget.reason})"
                )
            return budget.degrade(ub)
        best = _bounded_bidirectional_masked_budgeted(
            self._graph, s, t, ub, mask, budget
        )
        if budget.exceeded:
            if strict:
                raise DeadlineExceeded(
                    f"{_what}({s}, {t}) exceeded its budget mid-refinement "
                    f"({budget.reason})"
                )
            return budget.degrade(best)
        return best

    def refine(self, s: int, t: int, upper_bound: float) -> float:
        """Exact ``d(s, t)`` from the constrained ``upper_bound``.

        Bitwise-equal to ``bounded_bidirectional_distance_masked`` on the
        plan's graph and landmark mask; see :meth:`_search`.
        """
        return self._search(s, t, upper_bound)[0]

    def _search(self, s: int, t: int, upper_bound: float):
        """The refinement kernel: ``(best, settled, edges, pushes, certified)``.

        A bounded bidirectional Dijkstra on the compiled landmark-free
        adjacency with the dict kernel's alternation rule, skip tests
        and meeting update.  When every edge weight is integral it adds
        two ALT steps (:meth:`_alt`):

        * *certify* — ``upper_bound <= LB(s, t)`` proves the bound exact,
          so it is returned without settling anything;
        * *prune* — when ``LB`` is strong enough to pay for the test
          (:data:`ALT_PRUNE_RATIO`), a vertex ``v`` is never pushed when
          its tentative distance plus ``π(v)``, the lower bound on
          ``d(v, t)`` (on the backward side: ``d(s, v)``), reaches
          ``best``: no path through it can beat the current bound.

        Both bounds hold in ``G`` and therefore in ``G[V∖R]``, and integer
        sums are exact in floating point, so the answer is the float the
        unpruned search returns.  The counts are settled vertices, the
        adjacency entries they scanned and heap pushes.
        """
        if s == t:
            return 0.0, 0, 0, 0, False
        if self.mask[s] or self.mask[t]:
            return upper_bound, 0, 0, 0, False
        adj = self._adj
        if adj is None:
            adj = self._compile_adjacency()
        c1 = c2 = None
        if self._integral and self.k:
            cols = self._alt(s, t, upper_bound)
            if cols is None:
                return upper_bound, 0, 0, 0, True
            c1, c2 = cols
        if c1 is not None:
            s1, s2, t1, t2 = c1[s], c2[s], c1[t], c2[t]
        else:
            s1 = s2 = t1 = t2 = 0.0
        ws = self._ws
        if ws is None:
            ws = self._ws = SearchWorkspace(self.n)

        ws.epoch = epoch = ws.epoch + 1
        dist_f = ws.dist_f
        dist_b = ws.dist_b
        gen_f = ws.gen_f
        gen_b = ws.gen_b
        dist_f[s] = 0.0
        gen_f[s] = epoch
        dist_b[t] = 0.0
        gen_b[t] = epoch
        heap_f = [(0.0, s)]
        heap_b = [(0.0, t)]
        best = upper_bound
        settled = edges = 0
        pushes = 2

        while heap_f and heap_b:
            if heap_f[0][0] + heap_b[0][0] >= best:
                break
            # Forward prunes towards t, backward towards s.
            if heap_f[0][0] <= heap_b[0][0]:
                heap, dist, gen, odist, ogen = heap_f, dist_f, gen_f, dist_b, gen_b
                y1, y2 = t1, t2
            else:
                heap, dist, gen, odist, ogen = heap_b, dist_b, gen_b, dist_f, gen_f
                y1, y2 = s1, s2
            d, u = heappop(heap)
            if d > dist[u]:  # stale heap entry (u was pushed, so gen[u] == epoch)
                continue
            if d >= best:
                continue
            settled += 1
            nbrs = adj[u]
            edges += len(nbrs)
            for w, v in nbrs:
                nd = d + w
                if nd >= best:
                    # Pruning skips this push even when v met the other
                    # side: a meeting at v cannot improve best then.
                    if c1 is not None or ogen[v] != epoch:
                        continue
                elif c1 is not None:
                    # π(v) = max over both columns of |d(r, v) - d(r, y)|.
                    p = c1[v] - y1
                    if p < 0.0:
                        p = -p
                    q = c2[v] - y2
                    if q < 0.0:
                        q = -q
                    if q > p:
                        p = q
                    if nd + p >= best:
                        continue
                if gen[v] != epoch:
                    gen[v] = epoch
                    dist[v] = nd
                    heappush(heap, (nd, v))
                    pushes += 1
                elif nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
                    pushes += 1
                if ogen[v] == epoch:
                    total = dist[v] + odist[v]
                    if total < best:
                        best = total
        return best, settled, edges, pushes, False

    def _alt(self, s: int, t: int, upper_bound: float):
        """ALT columns for one refinement, or ``None`` if ``upper_bound`` is exact.

        ``LB(s, t) = max_r |d(r, s) - d(r, t)|`` over the landmarks is a
        lower bound on ``d(s, t)`` by the triangle inequality; when it
        reaches ``upper_bound`` the bound is certified.  A landmark that
        reaches exactly one endpoint proves ``d(s, t) = inf``, which every
        upper bound certifies.  Otherwise returns the distance columns
        ``d(r, ·)`` of the two landmarks with the largest gaps, or
        ``(None, None)`` — search unpruned — when ``LB`` is below
        :data:`ALT_PRUNE_RATIO` of the bound (or no landmark reaches both
        endpoints).
        """
        G = self._alt_source()[1]
        if G is not None:
            gs = G[s].tolist()
            gt = G[t].tolist()
        else:
            gs = self._landmark_row(s)
            gt = self._landmark_row(t)
        lb = gap2 = -1.0
        j1 = j2 = -1
        for j, a in enumerate(gs):
            b = gt[j]
            if a == INF or b == INF:
                if a != b:
                    return None
                continue
            gap = a - b if a > b else b - a
            if gap > lb:
                j2, gap2, j1, lb = j1, lb, j, gap
            elif gap > gap2:
                j2, gap2 = j, gap
        if upper_bound <= lb:
            return None
        if lb < ALT_PRUNE_RATIO * upper_bound:
            return None, None
        c1 = self._alt_column(j1)
        return c1, (self._alt_column(j2) if j2 >= 0 else c1)

    def _alt_source(self):
        """``(ids, G, columns)``: where the exact landmark distances live.

        Column ``j`` holds ``d(ids[j], ·)`` in slot order; ``ids`` may
        hold ``-1`` holes, whose entries are all ``inf`` (:meth:`_alt`
        skips them).  With numpy, ``G`` is the vector backend's matrix;
        without it ``G`` is ``None`` and rows and columns are computed
        from the label rows.  ``columns`` caches extracted columns by
        landmark id.
        """
        alt = self._alt_src
        if alt is None:
            vec = self.vector_backend()
            G = vec.g_matrix() if vec is not None else None
            alt = self._alt_src = (self.landmark_ids.tolist(), G, {})
        return alt

    def _alt_column(self, j: int) -> list[float]:
        """``d(ids[j], v)`` for every vertex ``v``, cached by landmark id."""
        ids, G, columns = self._alt_src
        r = ids[j]
        col = columns.get(r)
        if col is None:
            if G is not None:
                col = G[:, j].tolist()
            else:
                hcol = [hwrow[j] for hwrow in self._hwrows]
                col = []
                for row in self._rows:
                    best = INF
                    for d, si in row:
                        x = d + hcol[si]
                        if x < best:
                            best = x
                    col.append(best)
            columns[r] = col
        return col

    def build_landmark_distances(self) -> bool:
        """Build the vector backend's ``G`` now; False without numpy.

        The batch kernel and the exact path's ALT bounds both read ``G``;
        :class:`~repro.core.epoch.PlanRegistry` calls this before it
        publishes an epoch, so no read after a write pays for the build.
        """
        vec = self.vector_backend()
        if vec is None:
            return False
        vec.g_matrix()
        return True

    def _compile_adjacency(self):
        """Landmark-free ``adj[v] = ((w, u), ...)``, lazily on first use.

        Only exact queries pay for this O(n + m) pass; constrained-only
        plans never touch the graph.  Landmark rows compile to empty
        tuples — the kernel rejects landmark endpoints before expanding.
        The same pass records whether every edge weight is integral, the
        condition for the kernel's ALT bounds.
        """
        if OBS.enabled:
            with OBS.span("plan.compile_adjacency"):
                return self._build_adjacency()
        return self._build_adjacency()

    def _build_adjacency(self):
        graph = self._graph
        neighbors = graph.neighbors
        mask = self.mask
        adj = [_landmark_free(neighbors(v), mask, v) for v in range(self.n)]
        self._adj = adj
        self._integral = _integral_weights(graph, range(self.n))
        return adj

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """Number of flattened label entries."""
        if self.label_slots is None:  # incremental plan: arrays are lazy
            return sum(len(row) for row in self._rows)
        return len(self.label_slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryPlan(n={self.n}, |R|={self.k}, "
            f"entries={self.total_entries})"
        )
