"""Checksummed shared-memory integrity: CRC headers, quarantine, fallback.

The shm segment now carries a WAL-style header (magic, identity, one
CRC32 per canonical array, header CRC).  These tests prove the promise
the header makes: a flipped byte anywhere in the label data is detected
*on attach* and the segment is never served — the owner republishes a
fresh segment from the unaffected heap-resident arrays.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_graph
from repro.core import build_hcl
from repro.core import shm
from repro.core.plan import QueryPlan
from repro.core.shm import SharedPlanRef, shm_available
from repro.errors import PlanIntegrityError
from repro.testing import corrupt_segment

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable"
)


def compiled(seed: int = 3, n_lo: int = 40, n_hi: int = 70):
    g = random_graph(seed, n_lo=n_lo, n_hi=n_hi, weighted=True)
    rng = random.Random(seed + 99)
    landmarks = sorted(rng.sample(range(g.n), 4))
    index = build_hcl(g, landmarks)
    index.plan_mode = "off"  # keep the dict oracle a dict
    return index, QueryPlan.compile(index)


def same_float(a: float, b: float) -> bool:
    return a == b or (a != a and b != b)


@needs_shm
class TestHeaderRoundTrip:
    def test_create_then_attach_verifies_clean(self):
        _, plan = compiled(seed=3)
        shared = plan.shared_buffers()
        assert shared is not None
        before = dict(shm.COUNTS)
        attachment = shared.ref.attach()  # verify=True is the default
        try:
            assert shm.COUNTS["verified"] == before["verified"] + 1
            assert shm.COUNTS["integrity_failures"] == (
                before["integrity_failures"]
            )
            # The attached views are bitwise the canonical arrays.
            n, k, ids, off, slots, dists, hw = attachment.arrays()
            cn, ck, cids, coff, cslots, cdists, chw = plan.canonical_arrays()
            assert (n, k) == (cn, ck)
            assert list(ids) == list(cids)
            assert list(off) == list(coff)
            assert list(slots) == list(cslots)
            assert all(same_float(a, b) for a, b in zip(dists, cdists))
            assert all(same_float(a, b) for a, b in zip(hw, chw))
        finally:
            attachment.close()
            plan.release_shared()

    def test_attachment_reverify_on_demand(self):
        _, plan = compiled(seed=4)
        shared = plan.shared_buffers()
        attachment = shared.ref.attach()
        try:
            attachment.verify()  # clean: returns without raising
            corrupt_segment(shared.ref, offset=8, xor=0x40)
            with pytest.raises(PlanIntegrityError):
                attachment.verify()
            assert shm.is_quarantined(shared.ref.name)
        finally:
            attachment.close()
            plan.release_shared()

    def test_forged_identity_rejected(self):
        _, plan = compiled(seed=5)
        shared = plan.shared_buffers()
        try:
            ref = shared.ref
            forged = SharedPlanRef(
                ref.name, ref.plan_version + 1, ref.n, ref.k, ref.entries
            )
            with pytest.raises(PlanIntegrityError, match="identity"):
                forged.attach()
        finally:
            plan.release_shared()


@needs_shm
class TestCorruptionDetection:
    def test_byte_flip_detected_on_attach_and_quarantined(self):
        _, plan = compiled(seed=6)
        shared = plan.shared_buffers()
        try:
            ref = shared.ref
            corrupt_segment(ref, offset=0, xor=0xFF)
            before = dict(shm.COUNTS)
            with pytest.raises(PlanIntegrityError, match="CRC mismatch"):
                ref.attach()
            assert shm.COUNTS["integrity_failures"] == (
                before["integrity_failures"] + 1
            )
            assert shm.is_quarantined(ref.name)
            assert ref.name in shm.quarantined_segments()
            # A quarantined name raises immediately, without mapping the
            # segment again (the attach counter stays put).
            attached_before = shm.COUNTS["attached"]
            with pytest.raises(PlanIntegrityError, match="quarantined"):
                ref.attach()
            assert shm.COUNTS["attached"] == attached_before
        finally:
            plan.release_shared()

    def test_flip_in_every_array_is_caught(self):
        _, plan = compiled(seed=7)
        shared = plan.shared_buffers()
        try:
            ref = shared.ref
            layout = shm._Layout(ref.n, ref.k, ref.entries)
            # One byte inside each of the five arrays, by its fencepost.
            for lo in layout._bounds()[:-1]:
                corrupt_segment(ref, offset=lo * shm._ITEMSIZE, xor=0x01)
                assert shared.verify() is False
                # Undo the flip: verify() must stay False regardless —
                # the quarantine is sticky even for a segment that
                # "heals" (the check short-circuits nothing; stickiness
                # lives in attach, so re-verify the attach path).
                corrupt_segment(ref, offset=lo * shm._ITEMSIZE, xor=0x01)
                with pytest.raises(PlanIntegrityError, match="quarantined"):
                    ref.attach()
        finally:
            plan.release_shared()

    def test_owner_verify_quarantines_and_republish_mints_fresh(self):
        _, plan = compiled(seed=8)
        shared = plan.shared_buffers()
        old_name = shared.ref.name
        corrupt_segment(shared.ref, offset=-1, xor=0x80)
        before = dict(shm.COUNTS)
        assert shared.verify() is False
        assert shared.quarantined
        assert shm.COUNTS["integrity_failures"] == (
            before["integrity_failures"] + 1
        )
        # The owner's remedy: the next shared_buffers() call unlinks the
        # poisoned segment and republishes from the canonical arrays.
        fresh = plan.shared_buffers()
        try:
            assert fresh is not None
            assert fresh.ref.name != old_name
            assert shared.unlinked
            assert shm.COUNTS["republished"] == before["republished"] + 1
            attachment = fresh.ref.attach()  # verifies clean
            attachment.close()
        finally:
            plan.release_shared()

    def test_verify_false_opts_out(self):
        _, plan = compiled(seed=9)
        shared = plan.shared_buffers()
        try:
            corrupt_segment(shared.ref, offset=16, xor=0x02)
            # Explicit opt-out maps the corrupt segment without checking
            # (the bench's attach-only baseline path).
            attachment = shared.ref.attach(verify=False)
            attachment.close()
        finally:
            plan.release_shared()


class TestPoolPickleFallback:
    """The error a worker raises on attach survives the trip home."""

    def test_integrity_error_pickles_with_segment(self):
        import pickle

        exc = PlanIntegrityError("segment 'abc' bad", segment="abc")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, PlanIntegrityError)
        assert clone.segment == "abc"
        assert clone.args == exc.args
