"""Transactional (all-or-nothing) mutations of an HCL index.

The dynamic algorithms (``UPGRADE-LMK`` / ``DOWNGRADE-LMK``) mutate the
labeling and highway in place through thousands of small writes; an
exception halfway through — a bug, an injected fault, a cancelled worker —
would otherwise leave the index in an unspecified state that is neither the
old nor the new configuration.  :class:`IndexTransaction` makes any such
mutation atomic with an *undo journal*:

* While a transaction is open, every :class:`~repro.core.labeling.Labeling`
  and :class:`~repro.core.highway.Highway` mutator first records the state
  it is about to overwrite — copy-on-write at row granularity for labels
  (one dict copy per *touched* vertex, however many writes hit it) and a
  single whole-matrix snapshot for the highway (landmark insertion/removal
  touches every row anyway, so this is the same order of work as the
  operation it protects).
* On success the journal is simply discarded — commit is free.
* On any exception the journal restores every touched row, leaving the
  index *value-identical* (and therefore byte-identical under the canonical
  binary serialization, which sorts entries) to its pre-transaction state.
  Non-library exceptions are re-raised wrapped in
  :class:`~repro.errors.TransactionError` with the original as cause.

Transactions nest by joining: an inner :class:`IndexTransaction` opened
while an outer one is active becomes a no-op and the outer journal keeps
recording, so a batch-level transaction can span many per-request
transactions and roll all of them back together.
"""

from __future__ import annotations

from ..errors import ReproError, TransactionError
from .index import HCLIndex

__all__ = ["IndexTransaction", "UndoJournal"]


class UndoJournal:
    """Copy-on-write undo state for one index's labeling + highway.

    When the index serves through an epoch registry
    (:class:`repro.core.epoch.PlanRegistry`), the journal holds a
    reference to it so rollback can cancel any recompile that might have
    snapshotted the now-discarded writes.
    """

    __slots__ = (
        "_label_saves",
        "_highway_save",
        "_label_count",
        "_edge_saves",
        "_registry",
    )

    def __init__(self, registry=None):
        self._label_saves: dict[int, dict[int, float]] = {}
        self._highway_save: dict[int, dict[int, float]] | None = None
        self._label_count: int | None = None
        # Edge-weight undo entries for batch-dynamic updates: the graph is
        # not journaled by its own mutators (it has none that know about
        # transactions), so apply_batch records each weight it overwrites
        # here — first write per edge only, in write order — and rollback
        # replays them in reverse.
        self._edge_saves: list[tuple[object, int, int, float]] = []
        self._registry = registry

    # ------------------------------------------------------------------
    # Recording (called by the data structures' mutators)
    # ------------------------------------------------------------------
    def record_label(self, labeling, v: int) -> None:
        """Save ``L(v)`` before its first mutation in this transaction."""
        if v not in self._label_saves:
            self._label_saves[v] = dict(labeling._labels[v])

    def record_label_growth(self, labeling) -> None:
        """Save the vertex count before the labeling grows."""
        if self._label_count is None:
            self._label_count = len(labeling._labels)

    def record_highway(self, highway) -> None:
        """Snapshot the distance matrix before its first mutation."""
        if self._highway_save is None:
            self._highway_save = {
                r: dict(row) for r, row in highway._dist.items()
            }

    def record_edge_weight(self, graph, u: int, v: int, old: float) -> None:
        """Save an edge's pre-update weight before ``set_weight``.

        Called once per edge by the batch engine *before* it overwrites the
        weight; duplicate updates to the same edge inside one batch are
        netted by the caller, so no first-touch dedup is needed here.
        """
        self._edge_saves.append((graph, u, v, old))

    # ------------------------------------------------------------------
    # Rollback
    # ------------------------------------------------------------------
    def rollback(self, labeling, highway) -> None:
        """Restore every recorded row; leaves the journal empty."""
        # Edge weights first, newest save last-undone: set_weight is its
        # own inverse given the saved old weight, and reverse order makes
        # repeated writes to one edge (impossible after netting, but cheap
        # to be safe against) land on the original value.
        for graph, u, v, old in reversed(self._edge_saves):
            graph.set_weight(u, v, old)
        self._edge_saves = []
        if self._label_count is not None:
            del labeling._labels[self._label_count :]
        labels = labeling._labels
        n = len(labels)
        for v, saved in self._label_saves.items():
            if v < n:
                labels[v] = saved
        # Restoration writes rows directly (not through the mutators), so
        # bump the revision counters here or compiled query plans would
        # keep serving the rolled-back state.
        labeling._rev += 1
        if self._highway_save is not None:
            highway._dist = self._highway_save
            highway._rev += 1
        self._label_saves = {}
        self._highway_save = None
        self._label_count = None
        if self._registry is not None:
            # A pending (or in-flight) recompile may have been scheduled
            # by — or may observe — the writes just undone; it must never
            # publish an epoch.  See ``PlanRegistry.invalidate_pending``.
            self._registry.invalidate_pending()

    @property
    def touched_labels(self) -> int:
        """Number of label rows saved so far (diagnostics/tests)."""
        return len(self._label_saves)


class IndexTransaction:
    """Context manager making in-place index mutations all-or-nothing.

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> from repro.core import build_hcl
    >>> from repro.core.upgrade import upgrade_landmark
    >>> g = Graph(4)
    >>> for u, v in [(0, 1), (1, 2), (2, 3)]:
    ...     g.add_edge(u, v, 1.0)
    >>> index = build_hcl(g, [1])
    >>> with IndexTransaction(index):
    ...     _ = upgrade_landmark(index, 3)
    >>> sorted(index.landmarks)
    [1, 3]
    """

    __slots__ = ("_index", "_journal", "_nested", "_rolled_back", "_base_version")

    def __init__(self, index: HCLIndex):
        self._index = index
        self._journal: UndoJournal | None = None
        self._nested = False
        self._rolled_back = False
        self._base_version = None

    @property
    def rolled_back(self) -> bool:
        """Whether this transaction was rolled back."""
        return self._rolled_back

    def __enter__(self) -> "IndexTransaction":
        labeling = self._index.labeling
        highway = self._index.highway
        if labeling._journal is not None or highway._journal is not None:
            # Join the enclosing transaction: its journal already records
            # every write, and its rollback will cover ours.
            self._nested = True
            return self
        registry = getattr(self._index, "_plan_registry", None)
        self._base_version = (
            labeling._rev,
            highway._rev,
            getattr(self._index.graph, "_rev", 0),
            labeling.n,
        )
        self._journal = UndoJournal(registry)
        labeling._journal = self._journal
        highway._journal = self._journal
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._nested:
            return False
        labeling = self._index.labeling
        highway = self._index.highway
        labeling._journal = None
        highway._journal = None
        if exc_type is None:
            journal = self._journal
            self._journal = None
            registry = journal._registry
            if registry is not None and (
                journal._label_saves
                or journal._highway_save is not None
                or journal._label_count is not None
                or journal._edge_saves
            ):
                # Commit: tell the epoch registry what changed so it can
                # recompile incrementally and swap in the next epoch.
                # The journal's copy-on-write keys are every row written;
                # only rows that differ from their pre-image need a patch.
                labels = labeling._labels
                registry.on_commit(
                    affected={
                        v
                        for v, saved in journal._label_saves.items()
                        if labels[v] != saved
                    },
                    base_version=self._base_version,
                    grew=journal._label_count is not None,
                    edges={
                        x
                        for _, u, v, _ in journal._edge_saves
                        for x in (u, v)
                    },
                )
            return False
        self._journal.rollback(labeling, highway)
        self._journal = None
        self._rolled_back = True
        if isinstance(exc, Exception) and not isinstance(exc, ReproError):
            raise TransactionError(
                f"index mutation rolled back after "
                f"{exc_type.__name__}: {exc}"
            ) from exc
        return False
