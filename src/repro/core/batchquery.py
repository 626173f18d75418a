"""Batched query serving over a frozen HCL index.

The per-pair ``QUERY``/``distance`` routines of :class:`HCLIndex` are the
right shape for online single queries; bulk traffic (the paper issues
``q = 10^7`` queries per scenario; BatchHL makes the same observation for
labeling indexes generally) shares work across pairs.  A batch runs one
in-process path:

* **Deduplication** — real workloads are skewed; the batch answers each
  distinct pair once and fans the value back out.  Reversed duplicates
  keep their own orientation: ``QUERY``'s float association follows
  argument order when the endpoint labels tie in size, so collapsing
  ``(t, s)`` onto ``(s, t)`` could drift from the per-pair loop by one
  ulp on float-weighted graphs.
* **One plan** — every distinct pair is answered from one compiled
  :class:`~repro.core.plan.QueryPlan`: an explicit plan, the pinned head
  epoch, or the index's valid (or lazily compiled) plan.  The constrained
  bounds come from :meth:`QueryPlan.query_many` — one min-plus reduction
  of the plan's :class:`~repro.core.planvec.VectorBackend` when numpy
  imports, the flat ``QueryPlan.query`` loop otherwise — the same kernel
  a fleet worker answers with; exact pairs refine their bound with
  :meth:`QueryPlan.distance`.

A batch with no plan (``plan="off"``, or an index pinned to
``plan_mode="off"``) runs the index's dict routines pair by pair — the
oracle every plan answer equals bitwise.
"""

from __future__ import annotations

from typing import Iterable

from ..budget import Budget
from ..errors import RequestError, VertexError
from .index import HCLIndex
from .plan import QueryPlan

__all__ = ["charge_label_scans", "query_batch"]


def query_batch(
    index: HCLIndex,
    pairs: Iterable[tuple[int, int]],
    exact: bool = False,
    budget: Budget | None = None,
    strict: bool = False,
    plan: QueryPlan | str = "auto",
) -> list[float]:
    """Answer many ``(s, t)`` queries against a frozen index at once.

    Parameters
    ----------
    index:
        The index to serve from.  It must not be mutated during the call.
    pairs:
        The query pairs of ``int`` vertex ids; duplicate pairs are
        answered once.
    exact:
        ``False`` (default) answers the paper's landmark-constrained
        ``QUERY``; ``True`` answers exact distances (constrained bound +
        bounded bidirectional refinement).
    budget:
        Optional :class:`~repro.budget.Budget` shared by the whole batch.
        Constrained pairs charge their label scan, ``min(|L(s)|,
        |L(t)|)``, in pair order and never degrade; exact pairs charge
        refinement steps only.  Once the budget expires, every remaining
        exact pair skips (or aborts) its refinement search and returns
        its constrained bound as a flagged
        :class:`~repro.budget.DegradedResult` — the batch always returns
        one sound answer per pair instead of stalling.
    strict:
        With ``budget``: raise :class:`~repro.errors.DeadlineExceeded` at
        the first degradation instead of returning flagged bounds.
    plan:
        Compiled serving plan policy.  ``"auto"`` (default) serves from
        the index's valid :class:`~repro.core.plan.QueryPlan`, compiling
        one by the index's single compile rule
        (:meth:`HCLIndex._serving_plan`, counting the batch's distinct
        pairs); ``plan_mode="off"`` on the index pins the dict path and
        ``plan_mode="epoch"`` routes to ``"epoch"``.  ``"off"`` forces
        the dict path; ``"epoch"`` pins the head epoch of the index's
        MVCC :class:`~repro.core.epoch.PlanRegistry` for the whole batch
        — the answers form one consistent snapshot even if mutations
        commit mid-batch, and the pin is released when the batch
        returns; passing a :class:`~repro.core.plan.QueryPlan` serves
        from exactly that plan (the caller vouches it reflects
        ``index``).  Every mode returns bitwise-identical answers.

    Returns
    -------
    list[float]
        One value per input pair, in input order, bitwise equal to calling
        ``index.query`` / ``index.distance`` per pair.  Unreachable pairs
        yield ``inf`` exactly as in the serial routines.
    """
    n = index.graph.n
    keys = []
    for s, t in pairs:
        if not (
            isinstance(s, int)
            and isinstance(t, int)
            and 0 <= s < n
            and 0 <= t < n
        ):
            raise VertexError(
                f"query pair ({s!r}, {t!r}) is not a pair of vertex ids "
                f"in [0, {n})"
            )
        keys.append((s, t))
    if not keys:
        return []

    # Distinct *ordered* pairs, in first-seen order: orientation is kept
    # (not normalized to ``s <= t``) so each answer reproduces the serial
    # routine's float association for its own argument order.
    order: dict[tuple[int, int], int] = {}
    for key in keys:
        if key not in order:
            order[key] = len(order)
    distinct = list(order)

    epoch = None
    if isinstance(plan, QueryPlan):
        plan_obj: QueryPlan | None = plan
    elif plan == "epoch" or (plan == "auto" and index.plan_mode == "epoch"):
        # Pin the head epoch for the whole batch; released in the finally
        # below, at which point a superseded epoch can retire.
        epoch = index.epoch_registry().acquire()
        plan_obj = epoch.plan
    elif plan == "auto":
        plan_obj = index._serving_plan(len(distinct))
    elif plan == "off":
        plan_obj = None
    else:
        raise RequestError(
            f"plan must be 'auto', 'off', 'epoch' or a QueryPlan, got {plan!r}"
        )

    try:
        values = _answer(index, plan_obj, distinct, exact, budget, strict)
        return [values[order[key]] for key in keys]
    finally:
        if epoch is not None:
            epoch.release()


def _answer(index, plan, keys, exact, budget, strict) -> list[float]:
    """Answer the distinct ``keys`` in order, from ``plan`` or the dicts.

    The constrained bound of every pair is computed first, without
    charging the budget; constrained batches then charge the label scans
    in pair order, and exact pairs hand their bound to the refinement, so
    label work is never charged twice and never charged for exact pairs.
    """
    if plan is None:
        rows = index.labeling._labels
        query = index._query_dicts
        distance = index._distance_dicts
        bounds = [query(s, t) for s, t in keys]
    else:
        rows = plan._rows
        distance = plan.distance
        bounds = plan.query_many(keys)
    if not exact:
        if budget is not None:
            charge_label_scans(rows, keys, budget)
        return bounds
    return [
        distance(s, t, budget, strict, _what="batch distance", ub=ub)
        for (s, t), ub in zip(keys, bounds)
    ]


def charge_label_scans(rows, keys, budget: Budget) -> None:
    """Charge ``budget`` one ``QUERY`` label scan per pair, in pair order.

    A scan costs ``min(|L(s)|, |L(t)|)``; a pair with an empty row is
    answered ``inf`` without scanning and charges nothing.  ``rows`` is
    anything indexable by vertex with sized rows (plan row tuples or the
    labeling's dicts).
    """
    for s, t in keys:
        ls, lt = len(rows[s]), len(rows[t])
        if ls and lt:
            budget.charge(min(ls, lt))
