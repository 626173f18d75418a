"""Validation of the HCL invariants the paper's theorems establish.

Three layers of checking, from cheapest to strongest:

* :func:`check_highway_exact` — ``δ_H`` equals true pairwise landmark
  distances (property (i) of Theorems 3.1/3.5).
* :func:`check_cover_property` — for (sampled or all) vertex pairs and every
  landmark ``r``, the ``r``-constrained distance is recoverable from
  ``δ_H`` + labels (property (ii)); compares against brute-force
  ``d(s, r) + d(r, t)``.
* :func:`assert_canonical` — *structural equality* with a from-scratch
  ``BUILDHCL``.  Because the canonical index is the unique minimal
  order-invariant labeling (Lemmas 3.2/3.3/3.6/3.7), this single check
  subsumes cover, minimality and order-invariance; it is the workhorse of
  the dynamic-algorithm test suite.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import CoverPropertyError
from ..graphs.graph import Graph
from ..graphs.traversal import single_source_distances
from .build import build_hcl
from .index import HCLIndex

INF = math.inf

__all__ = [
    "check_highway_exact",
    "check_cover_property",
    "check_minimality",
    "assert_canonical",
    "canonical_index",
    "brute_force_landmark_constrained",
    "CoverViolation",
    "HighwayViolation",
    "sample_vertex_pairs",
    "find_cover_violations",
    "find_highway_violations",
]


@dataclass(frozen=True)
class CoverViolation:
    """One failed cover-property decode: pair, landmark, both values."""

    s: int
    t: int
    landmark: int
    got: float
    expected: float

    def __str__(self) -> str:
        return (
            f"{self.landmark}-constrained distance for ({self.s}, {self.t}): "
            f"index gives {self.got}, brute force gives {self.expected}"
        )


@dataclass(frozen=True)
class HighwayViolation:
    """One highway cell that disagrees with the true landmark distance."""

    r1: int
    r2: int
    stored: float
    expected: float

    def __str__(self) -> str:
        return (
            f"δ_H({self.r1}, {self.r2}) = {self.stored} "
            f"but d({self.r1}, {self.r2}) = {self.expected}"
        )


def sample_vertex_pairs(
    index: HCLIndex,
    sample: int = 50,
    seed: int = 0,
    rng: random.Random | None = None,
) -> list[tuple[int, int]]:
    """Sample non-landmark vertex pairs for a cover-property probe.

    The single sampling path shared by :func:`check_cover_property`, the
    service's crash-recovery probe and the background
    :class:`~repro.core.auditor.IndexAuditor` — all three grade the index
    on pairs drawn the same way, so their verdicts are comparable.  Pass
    ``rng`` to continue an existing stream (the auditor does, so each
    tick draws fresh pairs deterministically); ``seed`` otherwise.
    """
    non_landmarks = [v for v in index.graph.vertices() if not index.is_landmark(v)]
    m = len(non_landmarks)
    if m < 2:
        return []
    if rng is None:
        rng = random.Random(seed)
    total = m * (m - 1) // 2
    if total <= sample:
        return list(itertools.combinations(non_landmarks, 2))
    # Draw ranks into the lexicographic pair order instead of listing all
    # C(m, 2) pairs: ``rng.sample`` consumes the stream the same way for
    # any population of this length, so the pairs equal
    # ``rng.sample(list(combinations(non_landmarks, 2)), sample)``.
    out = []
    for rank in rng.sample(range(total), sample):
        i, j = _unrank_pair(rank, m)
        out.append((non_landmarks[i], non_landmarks[j]))
    return out


def _unrank_pair(rank: int, m: int) -> tuple[int, int]:
    """The ``rank``-th ``(i, j)``, ``i < j < m``, in lexicographic order."""
    # Pairs with first element below i: start(i) = i * (2m - i - 1) / 2.
    b = 2 * m - 1
    i = (b - math.isqrt(b * b - 8 * rank)) // 2
    while i > 0 and i * (b - i) // 2 > rank:
        i -= 1
    while (i + 1) * (b - i - 1) // 2 <= rank:
        i += 1
    return i, i + 1 + rank - i * (b - i) // 2


def canonical_index(graph: Graph, landmarks: Iterable[int]) -> HCLIndex:
    """The unique minimal order-invariant index for ``(graph, landmarks)``."""
    return build_hcl(graph, sorted(landmarks))


def check_highway_exact(index: HCLIndex) -> None:
    """Raise :class:`CoverPropertyError` unless ``δ_H`` is exact."""
    violations = find_highway_violations(index, max_violations=1)
    if violations:
        raise CoverPropertyError(str(violations[0]))


def find_highway_violations(
    index: HCLIndex,
    landmarks: Iterable[int] | None = None,
    max_violations: int | None = None,
) -> list[HighwayViolation]:
    """Compare ``δ_H`` rows against ground-truth single-source distances.

    ``landmarks`` restricts which rows are recomputed (the auditor checks
    a few per tick); each restricted row is still compared against *all*
    landmarks.  Returns the disagreements instead of raising, capped at
    ``max_violations`` when given.
    """
    graph = index.graph
    lmks = sorted(index.landmarks)
    rows = lmks if landmarks is None else sorted(set(landmarks))
    violations: list[HighwayViolation] = []
    for r in rows:
        dist = single_source_distances(graph, r)
        for r2 in lmks:
            stored = index.highway.distance(r, r2)
            if stored != dist[r2]:
                violations.append(HighwayViolation(r, r2, stored, dist[r2]))
                if max_violations is not None and len(violations) >= max_violations:
                    return violations
    return violations


def brute_force_landmark_constrained(
    graph: Graph, landmarks: Iterable[int], s: int, t: int
) -> float:
    """``min_r d(s, r) + d(r, t)`` by plain single-source searches."""
    best = INF
    for r in landmarks:
        dist = single_source_distances(graph, r)
        d = dist[s] + dist[t]
        if d < best:
            best = d
    return best


def check_cover_property(
    index: HCLIndex,
    pairs: Sequence[tuple[int, int]] | None = None,
    sample: int = 50,
    seed: int = 0,
) -> None:
    """Verify property (ii): per-landmark constrained distances from labels.

    For each checked pair ``(s, t)`` and each landmark ``r``, the distance
    decoded from the index — ``min_i (d_i + δ_H(r_i, r))`` over ``L(s)``
    plus ``min_j (δ_H(r, r_j) + d_j)`` over ``L(t)`` — must equal the
    brute-force ``d(s, r) + d(r, t)``.  (The paper's §2 formula with
    ``r_i = r`` or ``r_j = r`` is the special case where ``r`` itself
    covers an endpoint.)
    """
    violations = find_cover_violations(
        index, pairs=pairs, sample=sample, seed=seed, max_violations=1
    )
    if violations:
        raise CoverPropertyError(str(violations[0]))


def find_cover_violations(
    index: HCLIndex,
    pairs: Sequence[tuple[int, int]] | None = None,
    sample: int = 50,
    seed: int = 0,
    landmarks: Iterable[int] | None = None,
    max_violations: int | None = None,
) -> list[CoverViolation]:
    """The checks of :func:`check_cover_property`, returned instead of raised.

    Runs the same per-pair, per-landmark decode against ground-truth
    single-source distances, but collects every disagreement (up to
    ``max_violations``) as structured :class:`CoverViolation` records —
    the form the background auditor and the recovery probe consume.
    ``landmarks`` restricts which constrained distances are graded (and
    therefore which ground-truth searches run), bounding a tick's cost.
    """
    graph = index.graph
    lmks = sorted(index.landmarks)
    if landmarks is not None:
        lmks = sorted(set(landmarks) & set(lmks))
    if not lmks:
        return []
    dist_from = {r: single_source_distances(graph, r) for r in lmks}

    if pairs is None:
        pairs = sample_vertex_pairs(index, sample=sample, seed=seed)

    violations: list[CoverViolation] = []
    labeling = index.labeling
    highway = index.highway
    for s, t in pairs:
        ls = labeling.label(s)
        lt = labeling.label(t)
        for r in lmks:
            expected = dist_from[r][s] + dist_from[r][t]
            # Decode d(s, r) from L(s) (first landmark on a shortest s-r
            # path covers s) and d(r, t) from L(t), composing through δ_H;
            # the r_i = r / r_j = r cases of the paper's formula fall out
            # as δ_H(r, r) = 0.
            to_r = min(
                (di + highway.distance(ri, r) for ri, di in ls.items()),
                default=INF,
            )
            from_r = min(
                (highway.distance(r, rj) + dj for rj, dj in lt.items()),
                default=INF,
            )
            got = to_r + from_r
            if got != expected:
                violations.append(CoverViolation(s, t, r, got, expected))
                if max_violations is not None and len(violations) >= max_violations:
                    return violations
    return violations


def check_minimality(index: HCLIndex) -> None:
    """Verify no label entry can be dropped without breaking coverage.

    Uses the canonical characterization: entry ``(r, d) ∈ L(v)`` is needed
    iff some shortest ``r → v`` path avoids the other landmarks internally —
    i.e. the index must equal the canonical rebuild entry-for-entry.
    """
    assert_canonical(index)


def assert_canonical(index: HCLIndex) -> None:
    """Raise unless ``index`` equals the from-scratch canonical index.

    This is the strongest invariant check: it certifies the highway cover
    property, exactness of ``δ_H``, minimality *and* order-invariance in one
    comparison (the canonical index is the unique structure with all four).
    """
    fresh = canonical_index(index.graph, index.landmarks)
    if index.highway != fresh.highway:
        mine = {
            (a, b): index.highway.distance(a, b)
            for a in index.landmarks
            for b in index.landmarks
        }
        theirs = {
            (a, b): fresh.highway.distance(a, b)
            for a in fresh.landmarks
            for b in fresh.landmarks
        }
        diff = {k: (mine.get(k), theirs.get(k)) for k in set(mine) | set(theirs)
                if mine.get(k) != theirs.get(k)}
        raise CoverPropertyError(f"highway differs from canonical: {diff}")
    if index.labeling != fresh.labeling:
        diffs = []
        for v in index.graph.vertices():
            a = index.labeling.label(v)
            b = fresh.labeling.label(v)
            if a != b:
                diffs.append((v, dict(a), dict(b)))
            if len(diffs) >= 5:
                break
        raise CoverPropertyError(
            f"labeling differs from canonical at (vertex, got, want): {diffs}"
        )
