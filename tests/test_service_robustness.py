"""Service-layer robustness: auditing, validation, batch failure modes."""

import io

import pytest

from conftest import grid_graph
from repro.core import build_hcl
from repro.core.serialization import save_index_binary
from repro.errors import (
    LandmarkError,
    ReproError,
    RequestError,
    ServiceError,
    TransactionError,
    VertexError,
)
from repro.service import (
    AddLandmarkRequest,
    BatchQueryRequest,
    ConstrainedDistanceRequest,
    DistanceRequest,
    HCLService,
    RemoveLandmarkRequest,
)
from repro.testing import fail_at_label_write


def serialized(index) -> bytes:
    buf = io.BytesIO()
    save_index_binary(index, buf)
    return buf.getvalue()


@pytest.fixture
def svc():
    return HCLService.build(grid_graph(4, 5), [0, 19])


class TestValidation:
    @pytest.mark.parametrize("bad", [-1, 20, 3.5, "7", None])
    def test_bad_query_vertices_rejected(self, svc, bad):
        with pytest.raises(VertexError):
            svc.submit(DistanceRequest(bad, 1))
        with pytest.raises(VertexError):
            svc.submit(ConstrainedDistanceRequest(1, bad))

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_bad_mutation_vertices_rejected(self, svc, bad):
        with pytest.raises(VertexError):
            svc.submit(AddLandmarkRequest(bad))
        with pytest.raises(VertexError):
            svc.submit(RemoveLandmarkRequest(bad))
        assert svc.landmarks == {0, 19}

    def test_batch_pairs_validated_with_position(self, svc):
        with pytest.raises(VertexError, match=r"pair 1"):
            svc.submit(BatchQueryRequest(pairs=((0, 1), (2, 99))))

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("bad", [(1.0, 2), (2, 3.5), ("7", 1), (None, 0)])
    def test_batch_non_int_vertices_rejected(self, svc, bad, exact):
        # Like DistanceRequest(1.0, 2): a typed VertexError naming the
        # pair, not a foreign error from inside the kernel.
        with pytest.raises(VertexError, match=r"pair 1"):
            svc.submit(BatchQueryRequest(pairs=((0, 1), bad), exact=exact))

    def test_unknown_request_type_rejected(self, svc):
        with pytest.raises(RequestError):
            svc.submit(object())


class TestAuditEverything:
    def test_validation_failures_are_audited(self, svc):
        with pytest.raises(VertexError):
            svc.submit(DistanceRequest(-1, 1))
        rec = svc.audit[-1]
        assert not rec.ok
        assert rec.error.startswith("VertexError:")
        assert svc.stats.failures == 1

    def test_library_errors_keep_type_and_are_audited(self, svc):
        with pytest.raises(LandmarkError):
            svc.submit(AddLandmarkRequest(0))  # already a landmark
        assert svc.audit[-1].error.startswith("LandmarkError:")

    def test_foreign_errors_wrapped_in_service_error(self, svc, monkeypatch):
        monkeypatch.setattr(
            svc._engine, "distance",
            lambda s, t: (_ for _ in ()).throw(ZeroDivisionError("bug")),
        )
        with pytest.raises(ServiceError) as info:
            svc.submit(DistanceRequest(0, 1))
        assert isinstance(info.value.__cause__, ZeroDivisionError)
        assert isinstance(info.value, ReproError)
        rec = svc.audit[-1]
        assert rec.error.startswith("ZeroDivisionError:")

    def test_injected_fault_mid_mutation_rolls_back_and_audits(self, svc):
        g = svc._dyn.index.graph
        before = serialized(svc._dyn.index)
        with pytest.raises(TransactionError):
            with fail_at_label_write(4):
                svc.submit(AddLandmarkRequest(9))
        assert serialized(svc._dyn.index) == before
        assert svc.audit[-1].error.startswith("TransactionError:")
        # the service still works and the retried mutation is canonical
        svc.submit(AddLandmarkRequest(9))
        assert serialized(svc._dyn.index) == serialized(
            build_hcl(g, [0, 9, 19])
        )


class TestBatchSemantics:
    def test_invalid_on_error_rejected(self, svc):
        with pytest.raises(RequestError, match="on_error"):
            svc.submit_batch([DistanceRequest(0, 1)], on_error="retry")

    def test_stop_keeps_earlier_effects(self, svc):
        with pytest.raises(LandmarkError):
            svc.submit_batch(
                [
                    AddLandmarkRequest(5),
                    AddLandmarkRequest(5),  # duplicate fails
                    AddLandmarkRequest(9),  # never reached
                ],
                on_error="stop",
            )
        assert svc.landmarks == {0, 5, 19}

    def test_continue_processes_everything(self, svc):
        records = svc.submit_batch(
            [
                AddLandmarkRequest(5),
                AddLandmarkRequest(5),
                AddLandmarkRequest(9),
            ],
            on_error="continue",
        )
        assert [r.ok for r in records] == [True, False, True]
        assert svc.landmarks == {0, 5, 9, 19}

    def test_rollback_is_all_or_nothing(self, svc):
        g = svc._dyn.index.graph
        before = serialized(svc._dyn.index)
        log_before = svc._dyn.log.count
        mut_before = svc.stats.mutations
        with pytest.raises(LandmarkError):
            svc.submit_batch(
                [
                    AddLandmarkRequest(5),
                    AddLandmarkRequest(9),
                    AddLandmarkRequest(5),  # duplicate sinks the batch
                ],
                on_error="rollback",
            )
        assert serialized(svc._dyn.index) == before
        assert svc._dyn.log.count == log_before
        assert svc.stats.mutations == mut_before
        assert svc.landmarks == {0, 19}
        # queries after the rollback see the rolled-back index
        assert svc.submit(DistanceRequest(0, 19)) == pytest.approx(
            build_hcl(g, [0, 19]).distance(0, 19)
        )

    def test_rollback_commits_clean_batches(self, svc):
        g = svc._dyn.index.graph
        svc.submit_batch(
            [AddLandmarkRequest(5), RemoveLandmarkRequest(19)],
            on_error="rollback",
        )
        assert svc.landmarks == {0, 5}
        assert serialized(svc._dyn.index) == serialized(build_hcl(g, [0, 5]))
        assert svc._dyn.log.count == 2

    def test_rollback_invalidates_cached_answers(self, svc):
        # warm the cache, mutate + roll back, and check the cache does not
        # serve answers computed for the rolled-back state
        d0 = svc.submit(DistanceRequest(1, 18))
        with pytest.raises(LandmarkError):
            svc.submit_batch(
                [AddLandmarkRequest(9), AddLandmarkRequest(9)],
                on_error="rollback",
            )
        assert svc.submit(DistanceRequest(1, 18)) == d0

    def test_wal_not_polluted_by_rolled_back_batch(self, svc, tmp_path):
        wal_path = tmp_path / "svc.wal"
        svc = HCLService.build(grid_graph(4, 5), [0, 19], wal=wal_path)
        with pytest.raises(LandmarkError):
            svc.submit_batch(
                [AddLandmarkRequest(5), AddLandmarkRequest(5)],
                on_error="rollback",
            )
        assert svc.wal.last_seq == 0  # nothing leaked to the log
        svc.submit_batch(
            [AddLandmarkRequest(5), AddLandmarkRequest(9)],
            on_error="rollback",
        )
        assert svc.wal.last_seq == 2  # clean batch flushed on commit
        scan = svc.wal.scan()
        assert [(r.kind, r.vertex) for r in scan.records] == [
            ("add", 5),
            ("add", 9),
        ]

    def test_stop_mode_writes_wal_per_request(self, tmp_path):
        wal_path = tmp_path / "svc.wal"
        svc = HCLService.build(grid_graph(4, 5), [0], wal=wal_path)
        with pytest.raises(LandmarkError):
            svc.submit_batch(
                [AddLandmarkRequest(5), AddLandmarkRequest(5)],
                on_error="stop",
            )
        # first request committed (and stays committed), so it is logged
        assert svc.wal.last_seq == 1
