"""Shared-memory transport for compiled plan buffers.

A :class:`~repro.core.plan.QueryPlan`'s canonical arrays are immutable
once compiled, yet every shard broadcast used to
*pickle* them — megabytes of label data serialized per worker, for state
the workers only ever read.  This module moves the canonical arrays into
one named ``multiprocessing.shared_memory`` segment so other processes
**attach by name** instead: the parent ships a :class:`SharedPlanRef`
(a few dozen bytes), and the worker maps the same physical pages.

Layout
------
All five canonical arrays are 8-byte scalars after the ``"q"``/``"d"``
typecode normalization (``landmark_ids``/``offsets``/``slots`` are int64,
``dists``/``hw`` float64), so the segment is a header block followed by a
straight concatenation with no padding::

    [ header : 12 cells ]
    [ landmark_ids : k ][ offsets : n+1 ][ slots : E ][ dists : E ][ hw : k*k ]

The header mirrors the WAL record format's CRC discipline
(:mod:`repro.core.wal`): magic, the segment's identity (plan version,
``n``, ``k``, ``E``), one CRC32 per array, and a CRC32 over the header
itself, all stored as int64 cells so the data block stays 8-byte aligned::

    cell  0        magic ("HCLSHM\\x02")
    cell  1        plan_version
    cells 2-4      n, k, entries
    cells 5-9      CRC32 of each array (ids, offsets, slots, dists, hw)
    cell  10       CRC32 over cells 0-9
    cell  11       reserved (zero)

Integrity
---------
A flipped byte in a shared segment would silently become a bitwise-wrong
distance — the one failure mode the differential-testing regime exists
to exclude.  The header makes that impossible to miss: attaching
verifies every array checksum (:meth:`SharedPlanRef.attach`, opt out
with ``verify=False``), and both sides can re-verify on demand
(:meth:`AttachedPlanBuffers.verify`, :meth:`SharedPlanBuffers.verify`).
A failed check raises :class:`~repro.errors.PlanIntegrityError` and
**quarantines** the segment name process-locally: no later attach will
touch it, callers fall back to the pickle transport (visible in
``COUNTS["integrity_failures"]``), and the owner republishes a fresh
segment from the canonical arrays (heap copies, unaffected by segment
corruption) on the next :meth:`~repro.core.plan.QueryPlan.shared_buffers`
call.

:meth:`SharedPlanRef.attach` returns zero-copy views over the mapping —
``memoryview.cast`` views (indexing yields native Python ints/floats,
which is exactly what the interpreted flat kernel wants to box) — and
:func:`repro.core.planvec.VectorBackend` wraps the same buffer with
``numpy.frombuffer`` when numpy is available.

Lifecycle
---------
Exactly one process *owns* a segment (the one that created it) and is
responsible for the single ``unlink``; attachers only ever ``close``
(detach).  The owner-side rules, in order of precedence:

* :meth:`SharedPlanBuffers.unlink` is **idempotent** — a guard flag makes
  the second and later calls no-ops, so the epoch-retirement path and the
  interpreter-exit path can both fire without double-unlink errors;
* a plan published as an MVCC epoch unlinks when the epoch *retires and
  drains* (:meth:`repro.core.epoch.PlanRegistry._drop_locked` calls
  :meth:`repro.core.plan.QueryPlan.release_shared`) — readers pinned to
  the old epoch have already attached, and POSIX keeps the pages alive
  for existing mappings after the name is gone;
* an ``atexit`` hook unlinks every still-owned segment, so a shard
  worker that **crashed mid-batch** (and therefore never sent any
  kind of release) cannot leak the segment past the owner's lifetime —
  the owner's exit is the backstop, and the guard flag keeps the backstop
  compatible with an earlier explicit unlink.

Attachers run the Python < 3.13 resource-tracker workaround (bpo-39959):
without it, the *attaching* process registers the segment with its own
resource tracker and unlinks it at exit, yanking the data out from under
the owner and every sibling worker.
"""

from __future__ import annotations

import atexit
import os
import struct
import threading
import zlib
from dataclasses import dataclass

from ..errors import PlanIntegrityError

__all__ = [
    "SharedPlanBuffers",
    "SharedPlanRef",
    "is_quarantined",
    "quarantine",
    "quarantined_segments",
    "shm_available",
]

_ITEMSIZE = 8  # all canonical arrays are 8-byte scalars ("q" / "d")

#: Segment header: magic + identity + per-array CRC32s + header CRC32
#: (see the module docstring), stored as int64 cells for alignment.
_HEADER_CELLS = 12
_MAGIC = int.from_bytes(b"HCLSHM\x02\x00", "little")
_HEADER_BODY = struct.Struct("<10q")  # cells 0-9, covered by cell 10's CRC
_ARRAY_NAMES = ("landmark_ids", "offsets", "slots", "dists", "hw")

#: Owner-side registry of not-yet-unlinked segments; the atexit hook
#: below drains it.  Guarded by a lock: epoch retirement may run on a
#: recompile thread while the interpreter is tearing down.
_OWNED: dict[str, "SharedPlanBuffers"] = {}
_OWNED_LOCK = threading.Lock()

#: Counters for tests/observability (process-local, monotonically
#: increasing): segments created / attached / unlinked by this process,
#: plus the integrity ledger — CRC checks passed, checks failed (each
#: failure also quarantines the segment), and owner-side republishes of
#: a fresh segment after a quarantine.
COUNTS = {
    "created": 0,
    "attached": 0,
    "unlinked": 0,
    "verified": 0,
    "integrity_failures": 0,
    "republished": 0,
}

#: Names that failed a CRC check in this process; never attached again.
#: Process-local by design: a corrupt mapping is a per-machine event, and
#: the set stays tiny (one entry per corrupted segment, ever).
_QUARANTINED: set[str] = set()
_QUARANTINED_LOCK = threading.Lock()


def quarantine(name: str) -> None:
    """Bar ``name`` from every future attach in this process.

    Called automatically when a CRC check fails; exposed so a
    coordinator that learns of corruption from a *worker's* error reply
    can quarantine its own copy of the name too.
    """
    with _QUARANTINED_LOCK:
        _QUARANTINED.add(name)


def is_quarantined(name: str) -> bool:
    """Whether ``name`` failed an integrity check in this process."""
    with _QUARANTINED_LOCK:
        return name in _QUARANTINED


def quarantined_segments() -> tuple[str, ...]:
    """Snapshot of quarantined segment names (for health reports)."""
    with _QUARANTINED_LOCK:
        return tuple(sorted(_QUARANTINED))


def _load_shared_memory():
    """The stdlib module, or ``None`` where unsupported (import guard)."""
    try:
        from multiprocessing import shared_memory
    except ImportError:  # pragma: no cover - platform without shm
        return None
    return shared_memory


_PROBED: bool | None = None


def shm_available() -> bool:
    """Whether named shared-memory segments work on this platform.

    Probed once per process with a tiny create/unlink round trip;
    the ``REPRO_PLAN_SHM=0`` environment variable forces ``False`` (the
    pickle transport), which is also what the portability tests use.
    """
    global _PROBED
    if os.environ.get("REPRO_PLAN_SHM", "").strip() == "0":
        return False
    if _PROBED is None:
        shared_memory = _load_shared_memory()
        if shared_memory is None:
            _PROBED = False
        else:
            try:
                seg = shared_memory.SharedMemory(create=True, size=_ITEMSIZE)
                seg.close()
                seg.unlink()
                _PROBED = True
            except (OSError, ValueError):  # pragma: no cover - no /dev/shm
                _PROBED = False
    return _PROBED


def _fill(dst, src) -> None:
    """Copy ``src`` (array/memoryview) into the typed view ``dst``."""
    mv = memoryview(src)
    if mv.format != dst.format:
        mv = mv.cast("B").cast(dst.format)
    dst[:] = mv


def _attach_untracked(shared_memory, name: str):
    """Attach without registering with the resource tracker (py < 3.13).

    bpo-39959: attaching registers the segment with the *attacher's*
    resource tracker, which unlinks it when that process exits — yanking
    the pages' name out from under the owner.  And because the tracker's
    registry is a name-keyed set shared across forks, even a polite
    register-then-unregister from an attacher erases the **owner's**
    registration.  The only clean workaround is to suppress registration
    for the duration of the attach (the 3.13+ ``track=False`` parameter
    does exactly this internally).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


@dataclass(frozen=True)
class SharedPlanRef:
    """A picklable, byte-sized handle to one owner's plan segment.

    ``plan_version`` is the owning plan's monotonically-assigned id, part
    of the header identity every verifying attach checks, so a recompiled
    plan (new version, new segment) can never pass for a stale one.
    """

    name: str
    plan_version: int
    n: int
    k: int
    entries: int

    def attach(self, verify: bool = True) -> "AttachedPlanBuffers":
        """Map the segment read-only; raises ``FileNotFoundError`` when
        the owner already unlinked it.

        With ``verify=True`` (the default) every array's CRC32 is checked
        against the header before the attachment is handed out; a
        mismatch quarantines the segment and raises
        :class:`~repro.errors.PlanIntegrityError` — a corrupt segment is
        detected *on attach* and never served.  A name that already
        failed a check in this process raises immediately, without
        mapping it again.
        """
        if is_quarantined(self.name):
            raise PlanIntegrityError(
                f"segment {self.name!r} is quarantined after a failed "
                f"integrity check",
                segment=self.name,
            )
        shared_memory = _load_shared_memory()
        if shared_memory is None:  # pragma: no cover - platform guard
            raise FileNotFoundError("shared memory unsupported on platform")
        try:
            seg = shared_memory.SharedMemory(name=self.name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            seg = _attach_untracked(shared_memory, self.name)
        if verify:
            layout = _Layout(self.n, self.k, self.entries)
            try:
                layout.verify(seg.buf, self)
            except PlanIntegrityError:
                COUNTS["integrity_failures"] += 1
                quarantine(self.name)
                try:
                    seg.close()
                except BufferError:  # pragma: no cover - lingering view
                    pass
                raise
            COUNTS["verified"] += 1
        COUNTS["attached"] += 1
        return AttachedPlanBuffers(self, seg)


class _Layout:
    """Cell offsets of the header and five arrays inside one segment."""

    __slots__ = ("k", "n1", "entries", "data_cells", "total")

    def __init__(self, n: int, k: int, entries: int):
        self.k = k
        self.n1 = n + 1
        self.entries = entries
        self.data_cells = k + self.n1 + 2 * entries + k * k
        self.total = _HEADER_CELLS + self.data_cells

    def _bounds(self):
        """Fenceposts of the five arrays, in cells relative to the data
        block: ids | offsets | slots | dists | hw."""
        a = 0
        b = a + self.k
        c = b + self.n1
        d = c + self.entries
        e = d + self.entries
        f = e + self.k * self.k
        return (a, b, c, d, e, f)

    def views(self, buf, ref: SharedPlanRef):
        """Zero-copy canonical 7-tuple over ``buf`` (a writable or
        read-only buffer of at least ``total`` cells)."""
        mv = memoryview(buf)
        cells = mv.cast("B")[: self.total * _ITEMSIZE]
        a, b, c, d, e, f = self._bounds()

        def cut(lo, hi, code):
            lo += _HEADER_CELLS
            hi += _HEADER_CELLS
            return cells[lo * _ITEMSIZE : hi * _ITEMSIZE].cast(code)

        return (
            ref.n,
            ref.k,
            cut(a, b, "q"),  # landmark_ids
            cut(b, c, "q"),  # offsets
            cut(c, d, "q"),  # slots
            cut(d, e, "d"),  # dists
            cut(e, f, "d"),  # hw
        )

    def _array_crcs(self, cells) -> list[int]:
        """CRC32 of each array's byte range (``cells`` is a "B" view)."""
        bounds = self._bounds()
        crcs = []
        for lo, hi in zip(bounds, bounds[1:]):
            lo += _HEADER_CELLS
            hi += _HEADER_CELLS
            region = cells[lo * _ITEMSIZE : hi * _ITEMSIZE]
            try:
                crcs.append(zlib.crc32(region))
            finally:
                region.release()
        return crcs

    def write_header(self, buf, ref: SharedPlanRef) -> None:
        """Stamp the header block: identity, per-array CRCs, header CRC."""
        mv = memoryview(buf)
        cells = mv.cast("B")
        try:
            body = [_MAGIC, ref.plan_version, ref.n, ref.k, ref.entries]
            body += self._array_crcs(cells)
            header = cells[: _HEADER_CELLS * _ITEMSIZE].cast("q")
            try:
                for i, value in enumerate(body):
                    header[i] = value
                header[10] = zlib.crc32(_HEADER_BODY.pack(*body))
                header[11] = 0
            finally:
                header.release()
        finally:
            cells.release()

    def verify(self, buf, ref: SharedPlanRef) -> None:
        """Check the header and every array CRC; raise on any mismatch.

        Raises :class:`~repro.errors.PlanIntegrityError` naming the first
        failing component; the caller is responsible for quarantining.
        """
        mv = memoryview(buf)
        if mv.nbytes < self.total * _ITEMSIZE:
            mv.release()
            raise PlanIntegrityError(
                f"segment {ref.name!r} holds {mv.nbytes} bytes, expected "
                f">= {self.total * _ITEMSIZE}",
                segment=ref.name,
            )
        cells = mv.cast("B")
        try:
            header = cells[: _HEADER_CELLS * _ITEMSIZE].cast("q")
            try:
                body = list(header[:10])
                stored_header_crc = header[10]
            finally:
                header.release()
            if body[0] != _MAGIC:
                raise PlanIntegrityError(
                    f"segment {ref.name!r}: bad magic "
                    f"{body[0]:#x} (expected {_MAGIC:#x})",
                    segment=ref.name,
                )
            if stored_header_crc != zlib.crc32(_HEADER_BODY.pack(*body)):
                raise PlanIntegrityError(
                    f"segment {ref.name!r}: header CRC mismatch",
                    segment=ref.name,
                )
            identity = (ref.plan_version, ref.n, ref.k, ref.entries)
            if tuple(body[1:5]) != identity:
                raise PlanIntegrityError(
                    f"segment {ref.name!r}: header identity "
                    f"{tuple(body[1:5])} does not match ref {identity}",
                    segment=ref.name,
                )
            for name, stored, actual in zip(
                _ARRAY_NAMES, body[5:10], self._array_crcs(cells)
            ):
                if stored != actual:
                    raise PlanIntegrityError(
                        f"segment {ref.name!r}: CRC mismatch in "
                        f"{name} (stored {stored:#010x}, "
                        f"computed {actual:#010x})",
                        segment=ref.name,
                    )
        finally:
            cells.release()
            mv.release()


class AttachedPlanBuffers:
    """A non-owning mapping of another process's plan segment.

    ``arrays()`` hands out the canonical 7-tuple as ``memoryview.cast``
    views; they stay valid until :meth:`close`.  Closing is idempotent
    and never unlinks — only the owner does that.
    """

    __slots__ = ("ref", "_seg", "_views", "_closed")

    def __init__(self, ref: SharedPlanRef, seg):
        self.ref = ref
        self._seg = seg
        self._views = None
        self._closed = False

    def arrays(self):
        if self._closed:
            raise ValueError(f"attachment to {self.ref.name!r} is closed")
        if self._views is None:
            layout = _Layout(self.ref.n, self.ref.k, self.ref.entries)
            self._views = layout.views(self._seg.buf, self.ref)
        return self._views

    def verify(self) -> None:
        """Re-run the CRC check on demand (auditor ticks, paranoia).

        Raises :class:`~repro.errors.PlanIntegrityError` — and
        quarantines the segment — if any array no longer matches its
        checksum; the existing :meth:`arrays` views must then be
        considered poisoned and discarded.
        """
        if self._closed:
            raise ValueError(f"attachment to {self.ref.name!r} is closed")
        layout = _Layout(self.ref.n, self.ref.k, self.ref.entries)
        try:
            layout.verify(self._seg.buf, self.ref)
        except PlanIntegrityError:
            COUNTS["integrity_failures"] += 1
            quarantine(self.ref.name)
            raise
        COUNTS["verified"] += 1

    def close(self) -> None:
        """Detach (idempotent).  Views handed out become invalid.

        A view that still has downstream buffer exports (a numpy
        ``frombuffer`` array, a plan that outlived its attachment)
        cannot be released eagerly; it is left for garbage collection,
        and the mapping itself stays alive until the last export drops.
        """
        if self._closed:
            return
        self._closed = True
        views, self._views = self._views, None
        if views is not None:
            for v in views[2:]:
                try:
                    v.release()
                except BufferError:
                    pass
        try:
            self._seg.close()
        except BufferError:
            pass

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass


class SharedPlanBuffers:
    """The owner-side handle of one plan's shared segment."""

    __slots__ = ("ref", "_seg", "unlinked", "unlink_calls", "owner_pid")

    def __init__(self, ref: SharedPlanRef, seg):
        self.ref = ref
        self._seg = seg
        self.unlinked = False
        #: Diagnostic: number of *effective* unlinks performed (the
        #: exactly-once guarantee the fault tests assert is ``<= 1``).
        self.unlink_calls = 0
        #: Forked children inherit ``_OWNED`` — the pid gate keeps their
        #: exits from sweeping the parent's live segments.
        self.owner_pid = os.getpid()

    @classmethod
    def create(cls, canonical, plan_version: int) -> "SharedPlanBuffers | None":
        """Copy a plan's canonical arrays into a fresh named segment.

        Returns ``None`` when shared memory is unavailable or the
        allocation fails — callers fall back to the pickle transport.
        ``canonical`` is the 7-tuple :meth:`QueryPlan.canonical_arrays`
        returns.
        """
        if not shm_available():
            return None
        shared_memory = _load_shared_memory()
        n, k, ids, offsets, slots, dists, hw = canonical
        entries = len(slots)
        layout = _Layout(n, k, entries)
        ref_size = max(1, layout.total * _ITEMSIZE)
        try:
            seg = shared_memory.SharedMemory(create=True, size=ref_size)
        except (OSError, ValueError):  # pragma: no cover - ENOSPC etc.
            return None
        ref = SharedPlanRef(seg.name, plan_version, n, k, entries)
        _, _, v_ids, v_off, v_slots, v_dists, v_hw = layout.views(seg.buf, ref)
        try:
            _fill(v_ids, ids)
            _fill(v_off, offsets)
            _fill(v_slots, slots)
            _fill(v_dists, dists)
            _fill(v_hw, hw)
        finally:
            for v in (v_ids, v_off, v_slots, v_dists, v_hw):
                v.release()
        layout.write_header(seg.buf, ref)
        buffers = cls(ref, seg)
        with _OWNED_LOCK:
            _OWNED[ref.name] = buffers
        COUNTS["created"] += 1
        return buffers

    @property
    def name(self) -> str:
        return self.ref.name

    @property
    def quarantined(self) -> bool:
        """Whether this process has quarantined the segment's name."""
        return is_quarantined(self.ref.name)

    def verify(self) -> bool:
        """Owner-side on-demand CRC check (auditor ticks).

        Returns ``True`` when every checksum matches.  On a mismatch the
        segment is quarantined and ``False`` is returned instead of
        raising — the owner's remedy is republication, not unwinding a
        call stack, and the next :meth:`QueryPlan.shared_buffers` call
        mints a fresh segment from the canonical heap arrays.
        """
        if self.unlinked:
            return False
        layout = _Layout(self.ref.n, self.ref.k, self.ref.entries)
        try:
            layout.verify(self._seg.buf, self.ref)
        except PlanIntegrityError:
            COUNTS["integrity_failures"] += 1
            quarantine(self.ref.name)
            return False
        COUNTS["verified"] += 1
        return True

    def unlink(self) -> None:
        """Remove the segment name and detach — **exactly once**.

        Safe to call from epoch retirement, explicit release and the
        atexit hook in any combination; every call after the first is a
        no-op.  Attached workers keep their mappings until they close.
        """
        if self.unlinked:
            return
        self.unlinked = True
        self.unlink_calls += 1
        with _OWNED_LOCK:
            _OWNED.pop(self.ref.name, None)
        try:
            self._seg.close()
        except (OSError, BufferError):  # pragma: no cover - already gone
            pass
        try:
            self._seg.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover
            pass
        COUNTS["unlinked"] += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "unlinked" if self.unlinked else "live"
        return f"SharedPlanBuffers({self.ref.name!r}, {state})"


@atexit.register
def _unlink_owned() -> None:  # pragma: no cover - interpreter teardown
    """Owner-exit backstop: unlink everything this process still owns."""
    with _OWNED_LOCK:
        leftover = list(_OWNED.values())
    pid = os.getpid()
    for buffers in leftover:
        if buffers.owner_pid == pid:
            buffers.unlink()
