"""Tests for block and object storage services."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cloud.metering import UsageMeter
from repro.cloud.quota import Quota, QuotaManager
from repro.cloud.storage import BlockStorageService, ObjectStorageService
from repro.common import (
    ConflictError,
    InvalidStateError,
    NotFoundError,
    QuotaExceededError,
    SimClock,
    ValidationError,
)
from repro.common.ids import IdGenerator
from repro.common.units import GB


@pytest.fixture()
def block():
    clock = SimClock()
    qm = QuotaManager(Quota.unlimited())
    return clock, BlockStorageService(clock, IdGenerator(), qm, UsageMeter(clock)), qm


@pytest.fixture()
def objstore():
    clock = SimClock()
    qm = QuotaManager(Quota.unlimited())
    return clock, ObjectStorageService(clock, IdGenerator(), qm, UsageMeter(clock)), qm


class TestBlockStorage:
    def test_lab8_workflow_attach_format_mount_persist(self, block):
        """The Unit 8 lab: provision, attach, format, mount, persist data."""
        _, svc, _ = block
        vol = svc.create_volume("proj", "data", 2, lab="lab8")
        svc.attach(vol.id, "vm-1")
        svc.format_volume(vol.id)
        svc.mount(vol.id, "/mnt/data")
        svc.write_file(vol.id, "db.sqlite", b"state")
        # detach (ephemeral VM dies), re-attach elsewhere: data persists
        svc.detach(vol.id)
        svc.attach(vol.id, "vm-2")
        svc.mount(vol.id, "/mnt/data")
        assert svc.read_file(vol.id, "db.sqlite") == b"state"

    def test_size_must_be_positive(self, block):
        _, svc, _ = block
        with pytest.raises(ValidationError):
            svc.create_volume("proj", "v", 0)

    def test_cannot_mount_unformatted(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        svc.attach(vol.id, "vm-1")
        with pytest.raises(InvalidStateError):
            svc.mount(vol.id, "/mnt")

    def test_cannot_format_detached(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        with pytest.raises(InvalidStateError):
            svc.format_volume(vol.id)

    def test_cannot_attach_twice(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        svc.attach(vol.id, "vm-1")
        with pytest.raises(InvalidStateError):
            svc.attach(vol.id, "vm-2")

    def test_cannot_delete_attached(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        svc.attach(vol.id, "vm-1")
        with pytest.raises(ConflictError):
            svc.delete_volume(vol.id)

    def test_format_wipes_data(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        svc.attach(vol.id, "vm-1")
        svc.format_volume(vol.id)
        svc.mount(vol.id, "/mnt")
        svc.write_file(vol.id, "f", b"x")
        svc.format_volume(vol.id)
        svc.mount(vol.id, "/mnt")
        with pytest.raises(NotFoundError):
            svc.read_file(vol.id, "f")

    def test_capacity_enforced(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        svc.attach(vol.id, "vm-1")
        svc.format_volume(vol.id)
        svc.mount(vol.id, "/mnt")
        with pytest.raises(ConflictError):
            svc.write_file(vol.id, "big", b"x" * (1 * GB + 1))

    def test_quota_charged_and_released(self, block):
        _, svc, qm = block
        vol = svc.create_volume("proj", "v", 100)
        assert qm.usage("volume_storage_gb") == 100
        svc.delete_volume(vol.id)
        assert qm.usage("volume_storage_gb") == 0

    def test_gb_hours_metered(self, block):
        clock, svc, _ = block
        vol = svc.create_volume("proj", "v", 2, lab="lab8")
        clock.advance(3.0)
        svc.delete_volume(vol.id)
        recs = [r for r in svc._meter.records() if r.kind == "volume"]
        assert recs[0].unit_hours == pytest.approx(6.0)  # 2 GB * 3 h

    def test_snapshot_restore_round_trip(self, block):
        _, svc, _ = block
        vol = svc.create_volume("proj", "v", 1)
        svc.attach(vol.id, "vm-1")
        svc.format_volume(vol.id)
        svc.mount(vol.id, "/mnt")
        svc.write_file(vol.id, "a", b"1")
        snap = svc.snapshot(vol.id)
        svc.write_file(vol.id, "a", b"2")
        restored = svc.restore(snap.id, "proj", "v2")
        svc.attach(restored.id, "vm-9")
        svc.mount(restored.id, "/mnt2")
        assert svc.read_file(restored.id, "a") == b"1"


class TestObjectStorage:
    def test_put_get_round_trip(self, objstore):
        _, svc, _ = objstore
        svc.create_bucket("proj", "datasets")
        svc.put_object("datasets", "food11/train.tar", b"imagedata")
        obj = svc.get_object("datasets", "food11/train.tar")
        assert obj.data == b"imagedata"
        assert obj.etag  # md5 populated

    def test_duplicate_bucket_conflicts(self, objstore):
        _, svc, _ = objstore
        svc.create_bucket("proj", "b")
        with pytest.raises(ConflictError):
            svc.create_bucket("proj", "b")

    def test_invalid_bucket_name(self, objstore):
        _, svc, _ = objstore
        with pytest.raises(ValidationError):
            svc.create_bucket("proj", "a/b")

    def test_list_with_prefix(self, objstore):
        _, svc, _ = objstore
        svc.create_bucket("proj", "b")
        svc.put_object("b", "train/1", b"x")
        svc.put_object("b", "train/2", b"x")
        svc.put_object("b", "val/1", b"x")
        assert svc.list_objects("b", prefix="train/") == ["train/1", "train/2"]

    def test_delete_object_and_bucket(self, objstore):
        _, svc, _ = objstore
        svc.create_bucket("proj", "b")
        svc.put_object("b", "k", b"x")
        with pytest.raises(ConflictError):
            svc.delete_bucket("b")
        svc.delete_object("b", "k")
        svc.delete_bucket("b")
        with pytest.raises(NotFoundError):
            svc.get_object("b", "k")

    def test_overwrite_adjusts_quota(self, objstore):
        _, svc, qm = objstore
        svc.create_bucket("proj", "b")
        svc.put_object("b", "k", b"x" * 1000)
        assert qm.usage("object_storage_gb") == pytest.approx(1000 / GB)
        svc.put_object("b", "k", b"x" * 500)
        assert qm.usage("object_storage_gb") == pytest.approx(500 / GB)

    def test_quota_enforced(self):
        clock = SimClock()
        qm = QuotaManager(Quota(object_storage_gb=1e-6))
        svc = ObjectStorageService(clock, IdGenerator(), qm, UsageMeter(clock))
        svc.create_bucket("proj", "b")
        with pytest.raises(QuotaExceededError):
            svc.put_object("b", "k", b"x" * 10_000)

    def test_capacity_span_tracks_stored_bytes(self, objstore):
        clock, svc, _ = objstore
        svc.create_bucket("proj", "b")
        svc.put_object("b", "k", b"x" * GB)  # 1 GB
        clock.advance(2.0)
        svc.delete_object("b", "k")
        clock.advance(5.0)
        gb_hours = sum(
            r.unit_hours for r in svc._meter.records() if r.kind == "object_storage"
        )
        assert gb_hours == pytest.approx(2.0)  # 1 GB for 2 h, then 0 GB

    def test_external_usage_recorded(self, objstore):
        clock, svc, _ = objstore
        clock.advance(10.0)
        svc.record_external_usage("proj", gb=1541.0, hours=5.0, lab="project")
        recs = [r for r in svc._meter.records() if r.kind == "object_storage"]
        assert recs[0].quantity == 1541.0
        assert recs[0].hours == pytest.approx(5.0)

    @given(st.dictionaries(st.text(min_size=1, max_size=8), st.binary(max_size=64), max_size=10))
    def test_round_trip_property(self, contents):
        clock = SimClock()
        svc = ObjectStorageService(
            clock, IdGenerator(), QuotaManager(Quota.unlimited()), UsageMeter(clock)
        )
        svc.create_bucket("proj", "b")
        for k, v in contents.items():
            svc.put_object("b", k, v)
        for k, v in contents.items():
            assert svc.get_object("b", k).data == v
        assert svc.project_bytes("proj") == sum(len(v) for v in contents.values())
