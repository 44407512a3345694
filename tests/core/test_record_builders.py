"""The hot path's positional builders against the keyword-built originals.

The testbed builds a usage record per span close, the canonical merge
rebuilds every re-minted record, and the planner builds every activity
of a plan, all positionally, in field order.  A positional call in the
wrong order still runs, so each builder is held here to the keyword
form it replaced: field for field, ``None`` user and lab included.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.metering import UsageMeter, UsageRecord
from repro.columnar.planner import plan_columns, shards_from_columns
from repro.columnar.schema import SITE_NAMES
from repro.common import SimClock
from repro.core import COURSE, CohortConfig
from repro.core.cohort import (
    ProjectLeaseActivity,
    ProjectStorageActivity,
    ProjectVmActivity,
    SlotActivity,
    VmLabActivity,
)
from repro.core.usage import canonical_sort_key, canonicalize_records


def _replace_canonicalize(shard_lists):
    """``canonicalize_records`` as it was written with ``dataclasses.replace``."""
    tagged = []
    for shard_idx, records in enumerate(shard_lists):
        for rec in records:
            tagged.append((shard_idx, rec))
    tagged.sort(key=lambda t: canonical_sort_key(t[1]))
    counters = {}
    minted = {}
    out = []
    for shard_idx, rec in tagged:
        identity = (shard_idx, rec.site, rec.resource_id)
        new_id = minted.get(identity)
        if new_id is None:
            prefix = rec.resource_id.rsplit("-", 1)[0]
            counter_key = (rec.site, prefix)
            serial = counters.get(counter_key, 0) + 1
            counters[counter_key] = serial
            new_id = f"{prefix}-{serial:06d}"
            minted[identity] = new_id
        out.append(rec if rec.resource_id == new_id else replace(rec, resource_id=new_id))
    return out


@st.composite
def _records(draw):
    """A record from vocabularies of two or three values per field, so
    records tie on every sort-key field and ids repeat within a shard.
    ``None`` and ``""`` tie in the key (``rec.user or ""``)."""
    start = draw(st.sampled_from((0.0, 1.0, 2.5)))
    return UsageRecord(
        f"{draw(st.sampled_from(('vm', 'fip', 'bm')))}-{draw(st.integers(1, 3)):06d}",
        draw(st.sampled_from(("server", "floating_ip"))),
        draw(st.sampled_from(("m1.small", "gpu_v100"))),
        draw(st.sampled_from(("course", "admin"))),
        start,
        start + draw(st.sampled_from((0.0, 0.5))),
        draw(st.sampled_from((1.0, 2.0))),
        draw(st.sampled_from((None, "", "student001"))),
        draw(st.sampled_from((None, "", "lab1"))),
        draw(st.sampled_from(("kvm@tacc", "chi@tacc"))),
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shards=st.lists(st.lists(_records(), max_size=12), min_size=1, max_size=4))
def test_canonicalize_matches_the_replace_loop(shards):
    got = canonicalize_records(shards)
    want = _replace_canonicalize(shards)
    assert got == want
    assert [repr(r) for r in got] == [repr(r) for r in want]
    assert all(type(r) is UsageRecord for r in got)


def test_meter_records_match_keyword_built():
    clock = SimClock()
    meter = UsageMeter(clock, site="kvm@tacc")
    clock.advance_to(1.5)
    meter.open_span(
        "vol-000001", kind="volume", resource_type="block_storage", project="course",
        quantity=20.0, user="student001", lab="lab3",
    )
    meter.open_span("fip-000001", kind="floating_ip", resource_type="floating_ip", project="p")
    clock.advance_to(4.0)
    closed = meter.close_span("vol-000001")
    assert closed == UsageRecord(
        resource_id="vol-000001", kind="volume", resource_type="block_storage",
        project="course", start=1.5, end=4.0, quantity=20.0, user="student001",
        lab="lab3", site="kvm@tacc",
    )
    clock.advance_to(6.0)
    snapshot = UsageRecord(
        resource_id="fip-000001", kind="floating_ip", resource_type="floating_ip",
        project="p", start=1.5, end=6.0, quantity=1.0, user=None, lab=None, site="kvm@tacc",
    )
    assert meter.records() == [closed, snapshot]
    assert [repr(r) for r in meter.records()] == [repr(closed), repr(snapshot)]


def _keyword_activities(tables, schema) -> dict[str, list]:
    """Each family's activities built by keyword from the table rows."""
    n = schema.n_students
    labs, rtypes = schema.lab_names, schema.rtype_names
    users = schema.user_names.tolist()
    return {
        "vm": [
            VmLabActivity(
                lab_id=labs[lab], user=users[s], start=start, duration=duration,
                flavor=rtypes[flavor], vm_count=count, block_gb=block, object_gb=obj,
            )
            for s, lab, start, duration, flavor, count, block, obj in tables.rows("vm")
        ],
        "slot": [
            SlotActivity(
                lab_id=labs[lab], user=users[s], site=SITE_NAMES[site],
                node_type=rtypes[node], start=start, slot_hours=hours, edge=edge,
            )
            for s, lab, node, start, hours, site, edge in tables.rows("slot")
        ],
        "pvm": [
            ProjectVmActivity(
                user=users[n + grp], flavor=rtypes[flavor], start=start, hours=hours,
                with_fip=fip,
            )
            for grp, flavor, start, hours, fip in tables.rows("pvm")
        ],
        "pl": [
            ProjectLeaseActivity(
                user=users[n + grp], site=SITE_NAMES[site], node_type=rtypes[node],
                start=start, hours=hours, edge_session=edge,
            )
            for grp, node, start, hours, site, edge in tables.rows("pl")
        ],
        "ps": [
            ProjectStorageActivity(
                user=users[n + grp], start=start, block_gb=block, object_gb=obj, hours=hours,
            )
            for grp, start, hours, block, obj in tables.rows("ps")
        ],
    }


def test_plan_activities_match_keyword_built():
    plan = plan_columns(COURSE, CohortConfig(seed=42))
    students, groups = shards_from_columns(plan.tables, plan.schema)
    got = {
        "vm": [a for shard in students for a in shard.vm_labs],
        "slot": [a for shard in students for a in shard.slots],
        "pvm": [a for shard in groups for a in shard.project_vms],
        "pl": [a for shard in groups for a in shard.project_leases],
        "ps": [a for shard in groups for a in shard.project_storage],
    }
    want = _keyword_activities(plan.tables, plan.schema)
    assert got == want
    assert {k: list(map(repr, v)) for k, v in got.items()} == {
        k: list(map(repr, v)) for k, v in want.items()
    }
    # every field with a default or a flag takes more than one value
    vm, slot = got["vm"], got["slot"]
    assert any(a.block_gb for a in vm) and any(a.object_gb for a in vm)
    assert len({a.edge for a in slot}) == 2
    assert len({a.with_fip for a in got["pvm"]}) == 2
    assert len({a.edge_session for a in got["pl"]}) == 2
