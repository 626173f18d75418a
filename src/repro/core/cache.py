"""Version-invalidated query caching on top of DYN-HCL.

Query workloads in the paper's scenarios (Table 3 issues thousands of
queries per landmark update) are highly repetitive; a database deployment
would memoize.  The subtlety is *invalidation*: any landmark update can
change any landmark-constrained distance.  :class:`CachedQueryEngine`
handles this with the wrapped :class:`DynamicHCL`'s monotonic ``version``
counter — bumped on every committed mutation *and* on every transaction
rollback — so a reconfiguration (or an undone one) transparently flushes
the cache without hooks into the update algorithms.

Cache misses resolve through ``HCLIndex.query``/``distance``/
``query_batch``, so they are served from the compiled
:class:`~repro.core.plan.QueryPlan` whenever one is valid — the plan
revalidates itself against the structure revision counters, independent
of (and consistent with) this cache's version-based flushing.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..budget import Budget, DegradedResult
from ..obs import OBS
from .dynhcl import DynamicHCL

__all__ = ["CachedQueryEngine", "CacheStats"]


@dataclass
class CacheStats:
    """Hit/miss counters of a :class:`CachedQueryEngine`."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedQueryEngine:
    """LRU-memoized ``QUERY``/``distance`` over a dynamic HCL index.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> from repro.core import DynamicHCL
    >>> g = Graph(4)
    >>> for u, v in [(0, 1), (1, 2), (2, 3)]:
    ...     g.add_edge(u, v, 1.0)
    >>> engine = CachedQueryEngine(DynamicHCL.build(g, [1]))
    >>> engine.query(0, 3)
    3.0
    >>> engine.query(0, 3)          # served from cache
    3.0
    >>> engine.stats.hits, engine.stats.misses
    (1, 1)
    """

    def __init__(self, dyn: DynamicHCL, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.dyn = dyn
        self.capacity = capacity
        self.stats = CacheStats()
        self._version = dyn.version
        self._query_cache: OrderedDict[tuple[int, int], float] = OrderedDict()
        self._distance_cache: OrderedDict[tuple[int, int], float] = OrderedDict()

    def _check_version(self) -> None:
        current = self.dyn.version
        if current != self._version:
            # Only the cached answers flush; self.stats survives the
            # version bump so long-run hit rates stay meaningful.
            self._query_cache.clear()
            self._distance_cache.clear()
            self._version = current
            self.stats.invalidations += 1
            if OBS.enabled:
                OBS.registry.counter("cache.invalidations").inc()

    def _lookup(self, cache: OrderedDict, key, compute, **kwargs) -> float:
        self._check_version()
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
            self.stats.hits += 1
            if OBS.enabled:
                OBS.registry.counter("cache.hits").inc()
            return value
        value = compute(*key, **kwargs)
        if not isinstance(value, DegradedResult):
            # Degraded bounds are never memoized: a later unconstrained
            # call must get (and then cache) the exact answer, not inherit
            # some earlier request's deadline.
            cache[key] = value
            if len(cache) > self.capacity:
                cache.popitem(last=False)
        self.stats.misses += 1
        if OBS.enabled:
            OBS.registry.counter("cache.misses").inc()
        return value

    def query(
        self, s: int, t: int, budget: Budget | None = None, strict: bool = False
    ) -> float:
        """Memoized landmark-constrained distance (symmetric key)."""
        key = (s, t) if s <= t else (t, s)
        if budget is None:
            return self._lookup(self._query_cache, key, self.dyn.query)
        return self._lookup(
            self._query_cache, key, self.dyn.query, budget=budget
        )

    def distance(
        self, s: int, t: int, budget: Budget | None = None, strict: bool = False
    ) -> float:
        """Memoized exact distance (symmetric key).

        A cache hit beats any budget — the stored answer is exact and
        free, so budgeted requests happily consume it.  Only misses pay
        (and potentially degrade under) the budget.
        """
        key = (s, t) if s <= t else (t, s)
        if budget is None:
            return self._lookup(self._distance_cache, key, self.dyn.distance)
        return self._lookup(
            self._distance_cache,
            key,
            self.dyn.distance,
            budget=budget,
            strict=strict,
        )

    def batch(
        self,
        pairs,
        exact: bool = False,
        budget: Budget | None = None,
        strict: bool = False,
        plan="auto",
    ) -> list[float]:
        """Answer many pairs at once, through the cache.

        Cached pairs are served from the (version-checked) LRU store;
        the misses go to :func:`repro.core.batchquery.query_batch` in one
        batched call and are inserted afterwards, so a later per-pair
        ``query``/``distance`` hits.  ``plan`` passes through to
        ``query_batch`` — under ``"auto"`` an index in
        ``plan_mode="epoch"`` serves misses from a pinned
        :class:`~repro.core.epoch.PlanEpoch`, so the whole miss set is
        answered against one consistent snapshot.
        """
        from .batchquery import query_batch  # local: avoids an import cycle

        self._check_version()
        cache = self._distance_cache if exact else self._query_cache
        pair_list = list(pairs)
        results: list[float | None] = [None] * len(pair_list)
        misses: list[tuple[int, int]] = []
        miss_at: list[int] = []
        for i, (s, t) in enumerate(pair_list):
            key = (s, t) if s <= t else (t, s)
            value = cache.get(key)
            if value is not None:
                cache.move_to_end(key)
                self.stats.hits += 1
                results[i] = value
            else:
                misses.append(key)
                miss_at.append(i)
        if misses:
            computed = query_batch(
                self.dyn.index,
                misses,
                exact=exact,
                budget=budget,
                strict=strict,
                plan=plan,
            )
            for i, key, value in zip(miss_at, misses, computed):
                results[i] = value
                if key not in cache:
                    self.stats.misses += 1
                if isinstance(value, DegradedResult):
                    continue  # sound but inexact: never memoized
                cache[key] = value
                if len(cache) > self.capacity:
                    cache.popitem(last=False)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("cache.hits").inc(len(pair_list) - len(misses))
            reg.counter("cache.misses").inc(len(misses))
        return results

    # Update operations pass straight through; the version bump does the rest.
    def add_landmark(self, v: int, budget: Budget | None = None):
        """Promote ``v``; cached answers are invalidated lazily."""
        return self.dyn.add_landmark(v, budget=budget)

    def remove_landmark(self, v: int, budget: Budget | None = None):
        """Demote ``v``; cached answers are invalidated lazily."""
        return self.dyn.remove_landmark(v, budget=budget)

    def apply_batch(
        self,
        adds=(),
        removes=(),
        edge_updates=(),
        rebuild_factor: float = 0.75,
        budget: Budget | None = None,
    ):
        """Apply one merged batch; cached answers are invalidated lazily."""
        return self.dyn.apply_batch(
            adds=adds,
            removes=removes,
            edge_updates=edge_updates,
            rebuild_factor=rebuild_factor,
            budget=budget,
        )

    def __len__(self) -> int:
        return len(self._query_cache) + len(self._distance_cache)
