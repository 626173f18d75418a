"""Vectorized min-plus backend over a compiled plan's flat buffers.

The interpreted flat kernel in :mod:`repro.core.plan` walks the CSR
label rows and the dense ``δ_H`` table with Python loops — every cell
access boxes a float.  The landmark-constrained upper bound is exactly a
min-plus product of two label rows against ``δ_H``, so with numpy the
whole batch collapses into a handful of array reductions over *the same
buffers*, attached zero-copy with ``numpy.frombuffer`` (they may live in
a ``multiprocessing.shared_memory`` segment — see :mod:`repro.core.shm`;
the buffer-backed sparse-kernel idiom of APGL's ``SparseUtilsCython``).

Bitwise equality with the flat kernel (and hence the dict oracle) rests
on the same two facts the flat g-row fast path documents:

* every candidate is associated ``(d_outer + δ) + d_inner`` — here as
  ``g[outer, slot] = min_i (d_i + δ)`` followed by ``g[sj] + dj`` —
  and float addition is monotone, so the factored minimum equals the
  double-loop minimum *bitwise*, not just approximately;
* ``min`` over a fixed value set is order-independent, and numpy's
  float64 arithmetic performs the identical IEEE-754 operations CPython
  floats do, so vectorization changes neither the candidate values nor
  the reduction result.

The outer endpoint is chosen exactly as the flat kernel does — the
smaller label row, ties keeping ``s`` — which matters only for the
budget-charging contract (both sides charge ``min(|L(s)|, |L(t)|)``);
the minimum itself is symmetric.

numpy is an **optional** dependency: :func:`numpy_available` gates every
entry point, and ``REPRO_NO_NUMPY=1`` forces the pure-python flat path
(the no-numpy CI job sets it).  There is no other switch: a plan serves
from this backend exactly when numpy imports.
"""

from __future__ import annotations

import math
import os
from itertools import chain

INF = math.inf

__all__ = ["VectorBackend", "default_backend", "numpy_available"]

#: Target cell count per temporary chunk in the batched kernels; bounds
#: peak scratch memory at roughly 8–24 MB regardless of batch size.
_CHUNK_CELLS = 1 << 20

_NUMPY = None
_NUMPY_CHECKED = False


def _load_numpy():
    """Import numpy once; honor the ``REPRO_NO_NUMPY`` kill-switch."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("", "0"):
            _NUMPY = None
        else:
            try:
                import numpy
            except ImportError:
                _NUMPY = None
            else:
                _NUMPY = numpy
    return _NUMPY


def numpy_available() -> bool:
    """Whether the vectorized backend can run in this process."""
    return _load_numpy() is not None


def default_backend() -> str:
    """The kernel plans serve constrained bounds from.

    ``"vector"`` whenever numpy imports, else ``"flat"``.
    """
    return "vector" if numpy_available() else "flat"


def _flatten(np, rows, vertices):
    """``(lens, slots, dists)`` arrays of ``rows[v]`` for ``v`` in order."""
    picked = [rows[v] for v in vertices]
    lens = np.fromiter(map(len, picked), dtype=np.int64, count=len(picked))
    total = int(lens.sum())
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(picked)),
        dtype=np.float64,
        count=2 * total,
    ).reshape(total, 2)
    return lens, flat[:, 1].astype(np.int64), np.ascontiguousarray(flat[:, 0])


class VectorBackend:
    """numpy views over one plan's label rows and ``δ_H``, plus the kernels.

    Everything is indexed in the plan's own *slot* numbering, holes
    included: a hole slot (a landmark that left, see
    :meth:`QueryPlan.compile_incremental`) has an all-``inf`` row and
    column in ``hw`` and an all-``inf`` column in ``G``, and no label row
    references it.  A fully compiled plan is the hole-free case, so
    :meth:`QueryPlan.canonical_arrays` (and a shared-memory attachment of
    them) construct a backend directly — zero-copy (``frombuffer``).
    The backend adds O(n) derived metadata (row lengths) and, lazily,
    the ``n × k`` matrix ``G`` with ``G[v, j] = min_i (d_i + δ_H(r_i, j))``
    over ``L(v)`` — the batched generalization of the flat kernel's
    memoized hot g-rows (built for *every* vertex because one vectorized
    pass costs less than the per-row Python loop the flat path pays for
    hot rows alone).

    An incrementally compiled plan derives its backend from the prior
    epoch's with :meth:`patched`, at the cost of the changed rows.
    """

    __slots__ = (
        "np",
        "n",
        "k",
        "offsets",
        "slots",
        "dists",
        "hw",
        "row_len",
        "_G",
    )

    def __init__(self, canonical):
        np = _load_numpy()
        if np is None:  # pragma: no cover - callers gate on numpy_available
            raise RuntimeError("numpy is not available")
        n, k, _ids, offsets, slots, dists, hw = canonical
        self._set(
            np,
            n,
            k,
            np.frombuffer(offsets, dtype=np.int64),
            np.frombuffer(slots, dtype=np.int64),
            np.frombuffer(dists, dtype=np.float64),
            hw,
        )

    def _set(self, np, n, k, offsets, slots, dists, hw) -> None:
        self.np = np
        self.n = n
        self.k = k
        self.offsets = offsets
        self.slots = slots
        self.dists = dists
        self.hw = np.frombuffer(hw, dtype=np.float64).reshape(k, k)
        self.row_len = offsets[1:] - offsets[:-1]
        self._G = None

    @classmethod
    def from_rows(cls, n, k, rows, hw) -> "VectorBackend":
        """A backend over slot-space row tuples ``((d, slot), ...)``."""
        np = _load_numpy()
        if np is None:  # pragma: no cover - callers gate on numpy_available
            raise RuntimeError("numpy is not available")
        lens, slots, dists = _flatten(np, rows, range(n))
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        vec = cls.__new__(cls)
        vec._set(np, n, k, offsets, slots, dists, hw)
        return vec

    def patched(self, rows, changed, ids, prior_ids, hw):
        """The next epoch's backend: ``(backend, g_patched)``.

        ``rows`` are the next plan's slot-space row tuples, ``changed``
        the vertices whose rows differ from this backend's, ``ids`` /
        ``prior_ids`` the landmark id of every slot (``-1`` on holes) in
        the next and this plan, ``hw`` the next plan's ``k × k`` buffer.

        The CSR arrays are spliced: unchanged rows' segments are gathered
        from this backend, changed rows written from ``rows``.  ``G`` is
        copied and patched — changed rows through :meth:`_fill_g_rows`,
        the kernel the full build runs; each slot whose landmark is new
        gets its column from one ``minimum.reduceat`` over
        ``dists + hw[slots, j]``; slots that became holes turn ``inf`` —
        unless a ``δ_H`` cell between two surviving slots moved (an edge
        reweight), which invalidates unchanged rows too: then ``G`` is
        left to the full build (``g_patched`` is False).
        """
        np = self.np
        n = self.n
        k = len(ids)
        is_changed = np.zeros(n, dtype=bool)
        is_changed[np.fromiter(changed, np.int64, count=len(changed))] = True
        touched = np.flatnonzero(is_changed)
        new_lens, new_slots, new_dists = _flatten(np, rows, touched.tolist())
        row_len = self.row_len.copy()
        row_len[touched] = new_lens
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_len, out=offsets[1:])
        kept_old = np.repeat(~is_changed, self.row_len)
        kept_new = np.repeat(~is_changed, row_len)
        slots = np.empty(int(offsets[-1]), dtype=np.int64)
        dists = np.empty(int(offsets[-1]), dtype=np.float64)
        slots[kept_new] = self.slots[kept_old]
        dists[kept_new] = self.dists[kept_old]
        written = ~kept_new
        slots[written] = new_slots
        dists[written] = new_dists
        vec = VectorBackend.__new__(VectorBackend)
        vec._set(np, n, k, offsets, slots, dists, hw)

        k_old = self.k
        same = [
            i for i in range(k_old) if ids[i] >= 0 and ids[i] == prior_ids[i]
        ]
        surviving = np.ix_(same, same)
        if not np.array_equal(vec.hw[surviving], self.hw[surviving]):
            return vec, False
        G = np.full((n, k), INF)
        G[:, :k_old] = self.g_matrix()
        holes = [j for j in range(k) if ids[j] < 0]
        G[:, holes] = INF
        fresh = [j for j in range(k) if ids[j] >= 0 and j not in same]
        live = np.flatnonzero(row_len)
        if fresh and len(live):
            cand = dists[:, None] + vec.hw[:, fresh][slots]
            G[np.ix_(live, fresh)] = np.minimum.reduceat(
                cand, offsets[live], axis=0
            )
        vec._fill_g_rows(G, touched)
        vec._G = G
        return vec, True

    # ------------------------------------------------------------------
    # The dense g-matrix
    # ------------------------------------------------------------------
    def g_matrix(self):
        """``G[v, j] = min_i (d_i + δ_H(r_i, j))``, built on first use."""
        G = self._G
        if G is None:
            G = self._G = self._build_g_matrix()
        return G

    def _build_g_matrix(self):
        G = self.np.full((self.n, self.k), INF)
        if self.k and self.n:
            self._fill_g_rows(G, self.np.arange(self.n))
        return G

    def _fill_g_rows(self, G, vertices) -> None:
        """Write ``G[v]`` for every ``v`` in the index array ``vertices``.

        The one G-row kernel: the full build runs it over every vertex,
        an epoch patch over the changed rows.  A padded per-row gather,
        chunked over vertices: rows shorter than the longest read entry
        0 and are masked to +inf, so they cannot disturb the minimum (and
        empty rows come out all-inf, matching the flat kernel's "missing
        row" answer).
        """
        np = self.np
        k = self.k
        lens_all = self.row_len[vertices]
        lmax = int(lens_all.max()) if len(lens_all) else 0
        if lmax == 0:
            G[vertices] = INF
            return
        chunk = max(1, _CHUNK_CELLS // max(1, lmax * k))
        pos = np.arange(lmax)
        for lo in range(0, len(vertices), chunk):
            sel = vertices[lo : lo + chunk]
            lens = lens_all[lo : lo + chunk]
            valid = pos[None, :] < lens[:, None]
            idx = np.where(valid, self.offsets[sel, None] + pos[None, :], 0)
            # (C, lmax, k): d_i + δ row of each entry's landmark slot
            cand = self.dists[idx][:, :, None] + self.hw[self.slots[idx]]
            cand[~valid] = INF
            G[sel] = cand.min(axis=1)

    # ------------------------------------------------------------------
    # Constrained QUERY kernels
    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Single-pair ``QUERY(s, t)`` — bitwise-equal to the flat kernel."""
        row_len = self.row_len
        ls, lt = int(row_len[s]), int(row_len[t])
        if ls == 0 or lt == 0:
            return INF
        # Outer endpoint: the smaller label row, ties keeping s — the
        # flat kernel's exact selection rule.
        outer, inner = (t, s) if ls > lt else (s, t)
        lo = int(self.offsets[inner])
        hi = int(self.offsets[inner + 1])
        g = self.g_matrix()[outer]
        vals = g[self.slots[lo:hi]] + self.dists[lo:hi]
        return float(vals.min())

    def query_pairs(self, sources, targets):
        """Vectorized ``QUERY`` over parallel endpoint arrays.

        Returns a float64 array; entry ``p`` is bitwise-equal to
        ``plan.query(sources[p], targets[p])``.  Pairs with an empty
        label row on either side answer ``inf``, exactly like the flat
        kernel's early return.
        """
        np = self.np
        S = np.asarray(sources, dtype=np.int64)
        T = np.asarray(targets, dtype=np.int64)
        out = np.full(len(S), INF)
        if self.k == 0 or len(S) == 0:
            return out
        row_len = self.row_len
        swap = row_len[S] > row_len[T]
        outer = np.where(swap, T, S)
        inner = np.where(swap, S, T)
        live = np.nonzero((row_len[outer] > 0) & (row_len[inner] > 0))[0]
        if len(live) == 0:
            return out
        G = self.g_matrix()
        offsets = self.offsets
        slots = self.slots
        dists = self.dists
        # Chunked padded gather over the surviving pairs: one
        # ``min(g_outer[slots] + dists)`` reduction per chunk.
        lens_all = row_len[inner[live]]
        lmax_global = int(lens_all.max())
        chunk = max(1, _CHUNK_CELLS // max(1, lmax_global))
        for c_lo in range(0, len(live), chunk):
            sel = live[c_lo : c_lo + chunk]
            i_v = inner[sel]
            lens = row_len[i_v]
            lmax = int(lens.max())
            pos = np.arange(lmax)
            valid = pos[None, :] < lens[:, None]
            idx = np.where(valid, offsets[i_v, None] + pos[None, :], 0)
            vals = np.take_along_axis(G[outer[sel]], slots[idx], axis=1)
            vals += dists[idx]
            vals[~valid] = INF
            out[sel] = vals.min(axis=1)
        return out

    def query_many(self, keys) -> list[float]:
        """``QUERY`` over ``(s, t)`` key pairs, as native Python floats."""
        if not len(keys):
            return []
        np = self.np
        flat = np.asarray(keys, dtype=np.int64)
        return self.query_pairs(flat[:, 0], flat[:, 1]).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dense-g" if self._G is not None else "lazy"
        return f"VectorBackend(n={self.n}, k={self.k}, {state})"
