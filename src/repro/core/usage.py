"""Aggregating usage records into the paper's accounting rows.

The paper "associated most individual compute instances with specific lab
assignments" (§5); the simulator attributes explicitly via each record's
``lab`` tag.  A Table-1 row is a (lab, Chameleon resource type) pair;
floating-IP hours, which the meter attributes to the lab but not to a node
type, are apportioned to rows in proportion to row instance hours (for VM
labs this reproduces the 1-FIP-per-3-VM ratio of rows 2-3 exactly; for
reserved labs FIP hours equal instance hours by construction).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.numerics import stable_sum

if TYPE_CHECKING:  # annotations only: repro.cloud loads the whole testbed
    from repro.cloud.metering import UsageRecord

_INSTANCE_KINDS = ("server", "baremetal", "edge")


# -- canonical ordering & shard merge ---------------------------------------------
#
# `repro.parallel` executes cohort shards on independent testbeds, so the
# raw record streams differ from the serial run in two sharding artifacts:
# ordering (per-shard event loops interleave differently) and resource ids
# (every shard's IdGenerator starts from 1).  Canonicalization erases both:
# records are sorted under a total key over every *content* field, then ids
# are re-minted per (site, prefix) in first-appearance order of the sorted
# stream.  Two streams that agree record-by-record on content therefore
# canonicalize to the same list — regardless of how they were sharded or
# in which order the shards arrive.  (Records that tie on the full key are
# content-identical and thus interchangeable, so ties cannot break this.)


def canonical_sort_key(rec: UsageRecord) -> tuple:
    """Total order over record *content* — every field except resource_id."""
    return (
        rec.start,
        rec.end,
        rec.site,
        rec.kind,
        rec.resource_type,
        rec.project,
        rec.user or "",
        rec.lab or "",
        rec.quantity,
    )


def canonicalize_records(shard_lists: Iterable[Sequence[UsageRecord]]) -> list[UsageRecord]:
    """Merge per-shard record lists into one canonical stream.

    Sorts all records under :func:`canonical_sort_key` (order-insensitive
    to shard boundaries and shard order), then rewrites ``resource_id``
    with fresh per-(site, prefix) counters in first-appearance order, so
    ids look exactly like one shared IdGenerator minted them.  Records
    that share an id within one shard (one resource, several spans) keep
    sharing the re-minted id.
    """
    tagged: list[tuple[int, UsageRecord]] = []
    for shard_idx, records in enumerate(shard_lists):
        for rec in records:
            tagged.append((shard_idx, rec))
    tagged.sort(key=lambda t: canonical_sort_key(t[1]))

    counters: dict[tuple[str, str], int] = {}
    minted: dict[tuple[int, str, str], str] = {}  # (shard, site, old id) -> new id
    out: list[UsageRecord] = []
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


@dataclass
class AssignmentUsage:
    """One Table-1 row's usage."""

    lab_id: str
    resource_type: str
    instance_hours: float = 0.0
    floating_ip_hours: float = 0.0
    per_user_hours: dict[str, float] = field(default_factory=dict)


def aggregate_by_assignment(records: list[UsageRecord]) -> dict[tuple[str, str], AssignmentUsage]:
    """Group instance records into (lab, resource_type) rows with FIP hours.

    Every hours total is a :func:`~repro.common.numerics.stable_sum` over
    the contributing records, so the rows are invariant to record order
    and to whether the stream arrived serially or from columnar chunks
    (the summation contract of DESIGN §11).
    """
    rows: dict[tuple[str, str], AssignmentUsage] = {}
    row_hours: dict[tuple[str, str], list[float]] = defaultdict(list)
    user_hours: dict[tuple[str, str], dict[str, list[float]]] = defaultdict(dict)
    fip_hours_by_lab: dict[str, list[float]] = defaultdict(list)

    for rec in records:
        if rec.lab is None:
            continue
        if rec.kind in _INSTANCE_KINDS:
            key = (rec.lab, rec.resource_type)
            if key not in rows:
                rows[key] = AssignmentUsage(lab_id=rec.lab, resource_type=rec.resource_type)
            row_hours[key].append(rec.unit_hours)
            if rec.user is not None:
                user_hours[key].setdefault(rec.user, []).append(rec.unit_hours)
        elif rec.kind == "floating_ip":
            fip_hours_by_lab[rec.lab].append(rec.unit_hours)

    for key, row in rows.items():
        row.instance_hours = stable_sum(row_hours[key])
        row.per_user_hours = {
            user: stable_sum(vals) for user, vals in user_hours[key].items()
        }

    # apportion per-lab FIP hours across the lab's rows by instance share
    lab_row_hours: dict[str, list[float]] = defaultdict(list)
    for row in rows.values():
        lab_row_hours[row.lab_id].append(row.instance_hours)
    lab_totals = {lab: stable_sum(vals) for lab, vals in lab_row_hours.items()}
    fip_totals = {lab: stable_sum(vals) for lab, vals in fip_hours_by_lab.items()}
    for row in rows.values():
        total = lab_totals[row.lab_id]
        if total > 0:
            row.floating_ip_hours = fip_totals.get(row.lab_id, 0.0) * row.instance_hours / total
    return rows


def per_user_instance_hours(
    records: list[UsageRecord], *, labs: set[str] | None = None
) -> dict[str, dict[tuple[str, str], float]]:
    """user -> {(lab, resource_type): instance hours} (Fig 2 input)."""
    acc: dict[str, dict[tuple[str, str], list[float]]] = defaultdict(dict)
    for rec in records:
        if rec.kind not in _INSTANCE_KINDS or rec.lab is None or rec.user is None:
            continue
        if labs is not None and rec.lab not in labs:
            continue
        key = (rec.lab, rec.resource_type)
        acc[rec.user].setdefault(key, []).append(rec.unit_hours)
    return {
        user: {key: stable_sum(vals) for key, vals in per_key.items()}
        for user, per_key in acc.items()
    }


def per_user_fip_hours(
    records: list[UsageRecord], *, labs: set[str] | None = None
) -> dict[str, float]:
    """user -> floating-IP hours (Fig 2 input; FIP spans carry no user for
    reserved labs booked per slot, so those are counted via the lab share
    by the cost model instead)."""
    acc: dict[str, list[float]] = defaultdict(list)
    for rec in records:
        if rec.kind != "floating_ip" or rec.lab is None:
            continue
        if labs is not None and rec.lab not in labs:
            continue
        if rec.user is not None:
            acc[rec.user].append(rec.unit_hours)
    return {user: stable_sum(vals) for user, vals in acc.items()}
