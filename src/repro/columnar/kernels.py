"""Emission kernels: admitted activity rows → usage-record columns.

The object path produces usage records by running an event loop —
provision events open metered spans, teardown/expiry events close them,
staff cleanup closes stragglers at semester end.  For plan-admitted
activities that machinery is deterministic clockwork, so each activity
family's records have a closed form, derived from (and pinned against)
the runtime in ``repro/core/cohort.py`` + ``repro/cloud`` (``guard`` is
:data:`repro.core.course.SEMESTER_END_GUARD_H`):

* VM lab (admitted start s, duration d; e = min(s+d, H-guard)): one
  floating IP and ``vm_count`` servers over [s, e]; a block volume over
  [s, e] if the lab mounts one; an object span recorded *at* e covering
  ``max(0, e-s)`` hours (the runtime computes the span length first,
  then the start — the kernel repeats that operation order exactly).
* Reservation slot (fires only if s <= H): instance + floating IP over
  [s, min(s+slot_hours, H)] — the lease end is uncapped, so spans that
  outlive the semester are closed at H by staff cleanup.
* Project VM / lease: spans over [s, min(s+hours, H-guard)]; one
  floating IP for the VM that carries one; leases meter only the
  instance.
* Project storage: volume over [s, e]; object span recorded at e
  covering ``act.hours`` (NOT e-s — the runtime passes the uncapped
  duration here, a deliberate asymmetry with the VM-lab span).

Kernels are shard-execution code in the flow-analysis sense
(``repro.columnar.kernels.iter_record_batches`` is a PUR001/SEED001
entry point): they must stay RNG-free and wall-clock-free — all randomness
was resolved by the planner, all admission by the sweeps.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.columnar.schema import KIND_CODES, SITE_CODES, ColumnSchema, RecordColumns
from repro.core.course import KVM_SITE, SEMESTER_END_GUARD_H

#: Activities emitted per kernel call; bounds each batch's columns.
#: Correctness is independent of it (tests vary it).
CHUNK_ROWS = 2_000_000

_KIND_BM = KIND_CODES["baremetal"]
_KIND_EDGE = KIND_CODES["edge"]
_KIND_FIP = KIND_CODES["floating_ip"]
_KIND_OBJ = KIND_CODES["object_storage"]
_KIND_SRV = KIND_CODES["server"]
_KIND_VOL = KIND_CODES["volume"]
_KVM = SITE_CODES[KVM_SITE]


def _columns(
    start, end, quantity, kind, rtype, site, user, lab
) -> RecordColumns:
    n = len(start)

    def full(value, dtype):
        return np.full(n, value, dtype=dtype) if np.isscalar(value) else np.asarray(value, dtype=dtype)

    return RecordColumns(
        start=np.asarray(start, dtype=np.float64),
        end=np.asarray(end, dtype=np.float64),
        quantity=full(quantity, np.float64),
        kind=full(kind, np.int8),
        rtype=full(rtype, np.int16),
        site=full(site, np.int8),
        user=full(user, np.int32),
        lab=full(lab, np.int16),
    )


def _emit_vm_labs(tables, schema: ColumnSchema, H: float, lo: int, hi: int) -> list[RecordColumns]:
    s = tables.vm_start[lo:hi]
    if not len(s):
        return []
    e = np.minimum(s + tables.vm_duration[lo:hi], H - SEMESTER_END_GUARD_H)
    user = tables.vm_student[lo:hi].astype(np.int32)
    lab = tables.vm_lab[lo:hi]
    fip_rt = schema.rtype_codes["floating_ip"]
    out = [_columns(s, e, 1.0, _KIND_FIP, fip_rt, _KVM, user, lab)]

    counts = tables.vm_count[lo:hi].astype(np.int64)
    idx = np.repeat(np.arange(len(s)), counts)
    out.append(
        _columns(s[idx], e[idx], 1.0, _KIND_SRV, tables.vm_flavor[lo:hi][idx], _KVM, user[idx], lab[idx])
    )

    block = tables.vm_block_gb[lo:hi]
    has_vol = np.flatnonzero(block > 0)
    if len(has_vol):
        out.append(
            _columns(
                s[has_vol], e[has_vol], block[has_vol].astype(np.float64),
                _KIND_VOL, schema.rtype_codes["block_storage"], _KVM,
                user[has_vol], lab[has_vol],
            )
        )

    obj = tables.vm_object_gb[lo:hi]
    has_obj = np.flatnonzero(obj > 0)
    if len(has_obj):
        # runtime op order: span length first, then start = e - span
        span = np.maximum(0.0, e[has_obj] - s[has_obj])
        obj_start = np.maximum(0.0, e[has_obj] - span)
        out.append(
            _columns(
                obj_start, e[has_obj], obj[has_obj],
                _KIND_OBJ, schema.rtype_codes["object_storage"], _KVM,
                user[has_obj], lab[has_obj],
            )
        )
    return out


def _emit_slots(tables, schema: ColumnSchema, H: float, lo: int, hi: int) -> list[RecordColumns]:
    s_all = tables.slot_start[lo:hi]
    fire = np.flatnonzero(s_all <= H)  # a slot starting after H never provisions
    if not len(fire):
        return []
    s = s_all[fire]
    e = np.minimum(s + tables.slot_hours[lo:hi][fire], H)  # lease end uncapped; cleanup at H
    user = tables.slot_student[lo:hi][fire].astype(np.int32)
    lab = tables.slot_lab[lo:hi][fire]
    site = tables.slot_site[lo:hi][fire]
    kind = np.where(tables.slot_edge[lo:hi][fire], _KIND_EDGE, _KIND_BM).astype(np.int8)
    return [
        _columns(s, e, 1.0, kind, tables.slot_node[lo:hi][fire], site, user, lab),
        _columns(s, e, 1.0, _KIND_FIP, schema.rtype_codes["floating_ip"], site, user, lab),
    ]


def _emit_project_vms(tables, schema: ColumnSchema, H: float, lo: int, hi: int) -> list[RecordColumns]:
    s = tables.pvm_start[lo:hi]
    if not len(s):
        return []
    e = np.minimum(s + tables.pvm_hours[lo:hi], H - SEMESTER_END_GUARD_H)
    user = (schema.n_students + tables.pvm_group[lo:hi]).astype(np.int32)
    lab = schema.lab_codes["project"]
    out = [_columns(s, e, 1.0, _KIND_SRV, tables.pvm_flavor[lo:hi], _KVM, user, lab)]
    fip = np.flatnonzero(tables.pvm_with_fip[lo:hi])
    if len(fip):
        out.append(
            _columns(
                s[fip], e[fip], 1.0, _KIND_FIP, schema.rtype_codes["floating_ip"],
                _KVM, user[fip], lab,
            )
        )
    return out


def _emit_project_leases(tables, schema: ColumnSchema, H: float, lo: int, hi: int) -> list[RecordColumns]:
    s = tables.pl_start[lo:hi]
    if not len(s):
        return []
    e = np.minimum(s + tables.pl_hours[lo:hi], H - SEMESTER_END_GUARD_H)
    user = (schema.n_students + tables.pl_group[lo:hi]).astype(np.int32)
    kind = np.where(tables.pl_edge[lo:hi], _KIND_EDGE, _KIND_BM).astype(np.int8)
    return [
        _columns(
            s, e, 1.0, kind, tables.pl_node[lo:hi], tables.pl_site[lo:hi],
            user, schema.lab_codes["project"],
        )
    ]


def _emit_project_storage(tables, schema: ColumnSchema, H: float, lo: int, hi: int) -> list[RecordColumns]:
    s = tables.ps_start[lo:hi]
    if not len(s):
        return []
    e = np.minimum(s + tables.ps_hours[lo:hi], H - SEMESTER_END_GUARD_H)
    user = (schema.n_students + tables.ps_group[lo:hi]).astype(np.int32)
    lab = schema.lab_codes["project"]
    vol = _columns(
        s, e, np.maximum(1, tables.ps_block_gb[lo:hi]).astype(np.float64),
        _KIND_VOL, schema.rtype_codes["block_storage"], _KVM, user, lab,
    )
    # object span: recorded at e, covering the *uncapped* activity hours
    obj_start = np.maximum(0.0, e - tables.ps_hours[lo:hi])
    obj = _columns(
        obj_start, e, tables.ps_object_gb[lo:hi],
        _KIND_OBJ, schema.rtype_codes["object_storage"], _KVM, user, lab,
    )
    return [vol, obj]


def iter_record_batches(
    tables, schema: ColumnSchema, semester_hours: float
) -> Iterator[RecordColumns]:
    """Stream record columns family by family, :data:`CHUNK_ROWS` activities at a time.

    Chunking bounds peak memory: nothing here ever materializes the full
    record set — batches flow straight into the canonical merge, which
    buckets them by start time.

    This is the kernels' PUR001/SEED001 entry point.  The family table is
    built here, not at module level, because the call graph follows calls
    and not module-level tables: built here, it reaches all five kernels.
    """
    families = (
        ("vm_start", _emit_vm_labs),
        ("slot_start", _emit_slots),
        ("pvm_start", _emit_project_vms),
        ("pl_start", _emit_project_leases),
        ("ps_start", _emit_project_storage),
    )
    for length_attr, emit in families:
        n = len(getattr(tables, length_attr))
        for lo in range(0, n, CHUNK_ROWS):
            for batch in emit(tables, schema, semester_hours, lo, min(lo + CHUNK_ROWS, n)):
                if len(batch):
                    yield batch
