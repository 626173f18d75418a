"""The HCL index ``I = (H, L)`` and its query routines.

Implements the paper's ``QUERY(s, t, H, L)`` (landmark-constrained
distance), the exact distance query that refines the landmark-constrained
upper bound with a distance-bounded bidirectional search on
``G[V \\ R]``, and bookkeeping/statistics used by the experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..budget import Budget
from ..errors import DeadlineExceeded, LandmarkError, VertexError
from ..graphs.graph import Graph
from ..graphs.traversal import bounded_bidirectional_distance_masked
from ..obs import OBS
from ..tolerance import PRUNE_SCALE, REL_TOL
from .highway import Highway
from .labeling import Labeling
from .plan import QueryPlan

INF = math.inf

__all__ = ["HCLIndex", "IndexStats"]

#: In ``plan_mode="auto"`` a :class:`~repro.core.plan.QueryPlan` is
#: compiled for the call that would take the queries served against one
#: index revision past this count — a single query counts one, a batch
#: its distinct pairs.  Enough repeats to amortize compilation, while an
#: index alternating mutation and the odd query never compiles at all.
PLAN_COMPILE_AFTER = 8


@dataclass(frozen=True)
class IndexStats:
    """Size statistics of an HCL index (the paper's space measure)."""

    landmarks: int
    label_entries: int
    highway_cells: int
    average_label_size: float
    max_label_size: int

    @property
    def total_entries(self) -> int:
        """Label entries plus highway cells: the full index footprint."""
        return self.label_entries + self.highway_cells


class HCLIndex:
    """Highway cover labeling index over a graph.

    Build one with :func:`repro.core.build.build_hcl` and keep it current
    under landmark changes with
    :func:`repro.core.upgrade.upgrade_landmark` /
    :func:`repro.core.downgrade.downgrade_landmark` (or the
    :class:`repro.core.dynhcl.DynamicHCL` facade).

    Attributes
    ----------
    graph:
        The covered graph. The index holds a reference, not a copy.
    highway:
        The :class:`~repro.core.highway.Highway` ``(R, δ_H)``.
    labeling:
        The :class:`~repro.core.labeling.Labeling` ``L``.
    plan_mode:
        How the compiled serving plan is managed: ``"auto"`` (default)
        compiles lazily once the index would serve more than
        :data:`PLAN_COMPILE_AFTER` queries without a mutation in
        between (:meth:`compile_plan` compiles at once), ``"off"``
        serves every query from the authoritative dicts, and
        ``"epoch"`` serves from the head epoch of the MVCC
        :class:`~repro.core.epoch.PlanRegistry` with *no* per-query
        revalidation (epochs are swapped by transaction commits; see
        :meth:`epoch_registry`).  The dicts stay authoritative in every
        mode; outside epoch mode the plan revalidates against the
        structure revision counters on each use and is dropped the
        moment anything mutated.
    """

    __slots__ = (
        "graph",
        "highway",
        "labeling",
        "plan_mode",
        "_plan",
        "_plan_queries",
        "_plan_registry",
        "_mask",
        "_mask_stamp",
    )

    def __init__(self, graph: Graph, highway: Highway, labeling: Labeling):
        if labeling.n != graph.n:
            raise VertexError(
                f"labeling spans {labeling.n} vertices but graph has {graph.n}"
            )
        for r in highway.landmarks:
            if not 0 <= r < graph.n:
                raise LandmarkError(f"landmark {r} not a vertex of the graph")
        self.graph = graph
        self.highway = highway
        self.labeling = labeling
        self.plan_mode = "auto"
        self._plan: QueryPlan | None = None
        self._plan_queries = 0
        self._plan_registry = None
        self._mask: list[bool] | None = None
        self._mask_stamp = None

    # ------------------------------------------------------------------
    # Landmark set
    # ------------------------------------------------------------------
    @property
    def landmarks(self) -> set[int]:
        """The current landmark set ``R`` (fresh set)."""
        return self.highway.landmarks

    def is_landmark(self, v: int) -> bool:
        """Whether ``v`` is currently a landmark."""
        return v in self.highway

    # ------------------------------------------------------------------
    # Compiled serving plan
    # ------------------------------------------------------------------
    def plan(self) -> QueryPlan | None:
        """The current *valid* compiled plan, or ``None``.

        Never compiles; a plan made stale by a mutation is dropped.
        """
        plan = self._plan
        if plan is not None and plan.matches(self):
            return plan
        return None

    def compile_plan(self) -> QueryPlan:
        """Compile (and adopt) a fresh plan from the current dict state."""
        plan = QueryPlan.compile(self)
        self._plan = plan
        self._plan_queries = 0
        return plan

    def epoch_registry(self, recompile: str = "sync"):
        """The MVCC :class:`~repro.core.epoch.PlanRegistry` for this index.

        Created on first call (``recompile`` selects the registry's
        recompilation mode and is ignored afterwards).  Switching
        ``plan_mode`` to ``"epoch"`` — or calling
        :meth:`repro.core.dynhcl.DynamicHCL.enable_plan_epochs` — routes
        queries through the registry head; transactional mutations keep
        it current.  Non-transactional mutations require an explicit
        ``registry.refresh()``.
        """
        registry = self._plan_registry
        if registry is None:
            from .epoch import PlanRegistry  # local: avoid import cycle

            registry = self._plan_registry = PlanRegistry(
                self, recompile=recompile
            )
        return registry

    def _serving_plan(self, queries: int = 1) -> QueryPlan | None:
        """Valid plan for the next ``queries`` queries, compiling lazily.

        The one compile rule of ``plan_mode="auto"``: a single query
        counts one, a batch its distinct pairs, and the call that takes
        the count served against this revision past
        :data:`PLAN_COMPILE_AFTER` compiles the plan it is served from.
        """
        mode = self.plan_mode
        if mode == "off":
            # "off" pins the dict path even when a compiled plan is still
            # valid — it must mean *off*, or the benchmark dict twins
            # (and any operator escape hatch) silently measure the plan.
            return None
        if mode == "epoch":
            # Lock-free head borrow: no revalidation, no stamp compare.
            # Long-lived readers pin via registry.acquire() instead.
            return self.epoch_registry().head_plan()
        plan = self._plan
        if plan is not None:
            if plan.matches(self):
                return plan
            self._plan = None
            self._plan_queries = 0
            if OBS.enabled:
                OBS.registry.counter("plan.invalidations").inc()
        queries += self._plan_queries
        if queries > PLAN_COMPILE_AFTER:
            return self.compile_plan()
        self._plan_queries = queries
        return None

    def _exclusion_mask(self) -> list[bool]:
        """The landmark exclusion mask, cached across single-pair queries.

        Rebuilt only when the landmark set (highway revision) or vertex
        count changed — repeated ``distance`` calls stop paying the O(n)
        mask construction the batch path already amortizes.
        """
        stamp = (self.highway._rev, self.graph.n)
        if self._mask_stamp != stamp:
            mask = [False] * self.graph.n
            for r in self.highway._dist:
                mask[r] = True
            self._mask = mask
            self._mask_stamp = stamp
        return self._mask

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, s: int, t: int, budget: Budget | None = None) -> float:
        """Landmark-constrained distance — the paper's ``QUERY(s,t,H,L)``.

        Returns the weight of the shortest ``s``–``t`` path passing through
        at least one landmark (``inf`` when no such path exists).  This is
        an upper bound on ``d(s, t)`` and the exact beer distance when the
        landmarks are beer vertices.

        ``QUERY`` is the *anytime floor* of the serving stack: it is what a
        budget-expired :meth:`distance` falls back to, so it never degrades
        itself.  A ``budget`` is still accepted (and charged with the label
        work performed) so step budgets account for the whole request.

        Served from the compiled :class:`~repro.core.plan.QueryPlan` when
        one is valid (bitwise-identical answers, see ``repro.core.plan``);
        otherwise from the authoritative dicts.
        """
        plan = self._serving_plan()
        if plan is not None:
            return plan.query(s, t, budget)
        return self._query_dicts(s, t, budget)

    def _query_dicts(
        self, s: int, t: int, budget: Budget | None = None
    ) -> float:
        """:meth:`query` from the authoritative dicts (the plan's oracle)."""
        ls = self.labeling.row_items(s)
        lt = self.labeling.row_items(t)
        if not ls or not lt:
            return INF
        if budget is not None:
            # The scan cost is |L(s)|·|L(t)| label-pair examinations; charge
            # the outer loop so step budgets see query work at all.
            budget.charge(min(len(ls), len(lt)))
        if len(ls) > len(lt):
            ls, lt = lt, ls
        row = self.highway.row
        best = INF
        for ri, di in ls:
            hrow = row(ri)
            for rj, dj in lt:
                d = di + hrow.get(rj, INF) + dj
                if d < best:
                    best = d
        return best

    def query_from_landmark(self, r: int, u: int) -> float:
        """``QUERY(r, u, H, L)`` specialized for a landmark ``r``.

        For a landmark, ``L(r) = {(r, 0)}``, so the double loop collapses to
        one scan of ``L(u)``.  Used in the hot pruning tests of Algorithms
        1 and 2.
        """
        hrow = self.highway.row(r)
        best = INF
        for rj, dj in self.labeling.row_items(u):
            d = hrow.get(rj, INF) + dj
            if d < best:
                best = d
        return best

    def query_below(self, r: int, u: int, bound: float) -> bool:
        """Whether ``QUERY(r, u)`` is below ``bound`` beyond float tolerance.

        The pruning test of Algorithms 1 and 2.  Early-exits on the first
        witnessing entry, which is cheaper than materializing the full
        minimum on densely covered vertices.  The comparison is
        tolerance-aware (:data:`repro.tolerance.REL_TOL`): a
        landmark-through path that ties ``bound`` only in the last float
        bits does *not* count as strictly shorter, which keeps the dynamic
        algorithms' keep/prune decisions aligned with ``BUILDHCL``'s
        tie-tolerant coverage flags on float-weighted graphs.
        """
        cut = bound * PRUNE_SCALE
        hrow = self.highway.row(r)
        for rj, dj in self.labeling.row_items(u):
            if hrow.get(rj, INF) + dj < cut:
                return True
        return False

    def distance(
        self,
        s: int,
        t: int,
        budget: Budget | None = None,
        strict: bool = False,
    ) -> float:
        """Exact distance ``d(s, t)``.

        Combines the landmark-constrained upper bound with a
        distance-bounded bidirectional search on the subgraph induced by
        non-landmark vertices (paper §2).  When either endpoint is a
        landmark the bound is already exact.

        With a :class:`~repro.budget.Budget`, the refinement search is the
        part that degrades: once the budget expires the best bound found so
        far (at worst the landmark-constrained upper bound, which is always
        computed first) is returned as a flagged
        :class:`~repro.budget.DegradedResult` — or, with ``strict=True``,
        :class:`~repro.errors.DeadlineExceeded` is raised instead.  Without
        a budget the code path is byte-identical to the unbudgeted engine.
        """
        if s == t:
            return 0.0
        plan = self._serving_plan()
        if plan is not None:
            return plan.distance(s, t, budget, strict)
        return self._distance_dicts(s, t, budget, strict)

    def _distance_dicts(
        self,
        s: int,
        t: int,
        budget: Budget | None = None,
        strict: bool = False,
        _what: str = "distance",
        ub: float | None = None,
    ) -> float:
        """:meth:`distance` from the authoritative dicts (the plan's oracle).

        ``ub`` is the constrained bound when the caller already has it
        (batches compute every bound first); the label work of computing
        it is then not charged to ``budget``.
        """
        if s == t:
            return 0.0
        s_is_lmk = s in self.highway
        t_is_lmk = t in self.highway
        if s_is_lmk and t_is_lmk:
            return self.highway.distance(s, t)
        if s_is_lmk:
            return self.query_from_landmark(s, t)
        if t_is_lmk:
            return self.query_from_landmark(t, s)
        if ub is None:
            ub = self._query_dicts(s, t, budget)
        if budget is None:
            return bounded_bidirectional_distance_masked(
                self.graph, s, t, ub, self._exclusion_mask()
            )
        if budget.check():
            # Expired before refinement: the constrained bound is the
            # anytime answer (paper QUERY, computed above in label work).
            if strict:
                raise DeadlineExceeded(
                    f"{_what}({s}, {t}) exceeded its budget before "
                    f"refinement ({budget.reason})"
                )
            return budget.degrade(ub)
        best = bounded_bidirectional_distance_masked(
            self.graph, s, t, ub, self._exclusion_mask(), budget
        )
        if budget.exceeded:
            if strict:
                raise DeadlineExceeded(
                    f"{_what}({s}, {t}) exceeded its budget mid-refinement "
                    f"({budget.reason})"
                )
            return budget.degrade(best)
        return best

    def covering_landmarks(self, v: int) -> set[int]:
        """The landmarks covering ``v`` (those with an entry in ``L(v)``)."""
        return set(self.labeling.label(v))

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def stats(self) -> IndexStats:
        """Size statistics used by the space-validation experiments."""
        k = self.highway.size
        return IndexStats(
            landmarks=k,
            label_entries=self.labeling.total_entries(),
            highway_cells=k * k,
            average_label_size=self.labeling.average_label_size(),
            max_label_size=self.labeling.max_label_size(),
        )

    def copy(self) -> "HCLIndex":
        """Deep copy (shares the graph, copies highway and labeling).

        The compiled plan, cached mask and epoch registry are *not*
        carried over — they are derived state tied to the copied-from
        structures; the copy recompiles (and builds its own registry) on
        its own schedule.  ``plan_mode`` is inherited, except that
        ``"epoch"`` falls back to ``"auto"``: the copy has no registry,
        and a fresh one would silently start at epoch 1.
        """
        out = HCLIndex(self.graph, self.highway.copy(), self.labeling.copy())
        out.plan_mode = "auto" if self.plan_mode == "epoch" else self.plan_mode
        return out

    def structurally_equal(
        self,
        other: "HCLIndex",
        rel_tol: float = REL_TOL,
        abs_tol: float = 0.0,
    ) -> bool:
        """Equality of landmark sets, ``δ_H`` and all labels.

        The paper's minimality + order-invariance lemmas imply the index is
        a *canonical function of* ``(G, R)``; this predicate is what the
        test suite uses to compare dynamically-updated indexes against
        from-scratch rebuilds.

        The default is tolerance-aware at the library-wide
        :data:`repro.tolerance.REL_TOL`: matching entries and highway cells
        must agree within :func:`math.isclose`, and an entry present on one
        side only is accepted iff its distance is reproduced (within
        tolerance) by the *other* side's landmark-constrained query — i.e.
        it is a true distance the other index merely pruned at a
        floating-point tie.  A genuinely wrong or missing-coverage entry
        still fails.  The tolerant default exists because a highway cell
        composed as ``δ_H(r, r̂) + δ_H(r̂, r')`` by ``UPGRADE-LMK`` and the
        same value accumulated edge-by-edge by ``BUILDHCL`` can differ in
        the last float bit; bitwise-identical indexes always compare
        ``True``.  Pass ``rel_tol=0.0`` for exact (bitwise) comparison.
        """
        if rel_tol == 0.0 and abs_tol == 0.0:
            return (
                self.highway == other.highway
                and self.labeling == other.labeling
            )
        if self.landmarks != other.landmarks:
            return False
        lmks = sorted(self.landmarks)
        close = math.isclose
        for i, a in enumerate(lmks):
            for b in lmks[i:]:
                da = self.highway.distance(a, b)
                db = other.highway.distance(a, b)
                if da != db and not close(
                    da, db, rel_tol=rel_tol, abs_tol=abs_tol
                ):
                    return False
        for v in range(self.graph.n):
            mine = self.labeling.label(v)
            theirs = other.labeling.label(v)
            for r, d in mine.items():
                d2 = theirs.get(r)
                if d2 is None:
                    # Entry only on our side: tolerable iff the other index
                    # covers (r, v) at the same distance — an ulp-level
                    # pruning tie, not a structural divergence.
                    d2 = other.query_from_landmark(r, v)
                if d != d2 and not close(
                    d, d2, rel_tol=rel_tol, abs_tol=abs_tol
                ):
                    return False
            for r, d2 in theirs.items():
                if r not in mine:
                    d = self.query_from_landmark(r, v)
                    if d != d2 and not close(
                        d, d2, rel_tol=rel_tol, abs_tol=abs_tol
                    ):
                        return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HCLIndex(n={self.graph.n}, |R|={self.highway.size}, "
            f"entries={self.labeling.total_entries()})"
        )
