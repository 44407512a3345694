"""Usage records: their canonical order, and the one summary every artifact prices.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.common.numerics import stable_sum
from repro.core.course import COURSE, CourseDefinition

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
    sharing the re-minted id.  A re-minted record is rebuilt positionally,
    field for field, not through ``dataclasses.replace``, which pays for
    a keyword call and a field scan per record.
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
        if rec.resource_id != new_id:
            rec = type(rec)(
                new_id, rec.kind, rec.resource_type, rec.project, rec.start, rec.end,
                rec.quantity, rec.user, rec.lab, rec.site,
            )
        out.append(rec)
    return out


@dataclass(frozen=True)
class UserUsage:
    """One user's usage in the course's labs, in record order (Fig 2).

    Parallel columns, one entry per record: each instance record's lab,
    resource type and unit-hours, and each floating IP's lab and hours.
    """

    labs: list[str] = field(default_factory=list)
    resource_types: list[str] = field(default_factory=list)
    hours: list[float] = field(default_factory=list)
    fip_labs: list[str] = field(default_factory=list)
    fip_hours: list[float] = field(default_factory=list)

    def by_row(self) -> dict[tuple[str, str], list[float]]:
        """(lab, resource type) -> the user's unit-hours, rows in
        first-appearance order."""
        rows: dict[tuple[str, str], list[float]] = defaultdict(list)
        for lab, rtype, hours in zip(self.labs, self.resource_types, self.hours):
            rows[(lab, rtype)].append(hours)
        return rows


@dataclass(frozen=True)
class UsageSummary:
    """The records that the paper's rows count, grouped in one pass.

    Every artifact (Table 1, Figs 1-3, both what-ifs, the headline)
    reduces this summary and never the records themselves.  Each group
    keeps its unit-hours in record order and its keys in first-appearance
    order, so a reduction can take its totals through
    :func:`~repro.common.numerics.stable_sum` (invariant to record order,
    DESIGN §11's summation contract) or add them left to right exactly as
    it added the records.

    * ``rows``: the instance hours of each (lab, resource type) pair;
    * ``lab_fip``: each lab's floating-IP hours;
    * ``users``: each user's usage in the course's labs (Fig 2);
    * ``project``: the project's records, in record order.

    A user's usage is kept as columns, not grouped per row: a group per
    (user, row) is one more list the garbage collector tracks, and a
    semester has thousands of them.
    """

    rows: dict[tuple[str, str], list[float]]
    lab_fip: dict[str, list[float]]
    users: dict[str, UserUsage]
    project: list[UsageRecord]

    def row_hours(self) -> dict[tuple[str, str], tuple[float, float]]:
        """(lab, resource type) -> (instance hours, floating-IP hours).

        The meter attributes a floating IP to its lab, not to a node type,
        so a lab's floating-IP hours go to its rows in proportion to their
        instance hours.  The share divides by the ``stable_sum`` of the
        lab's row totals, not of its raw hours: the two can differ in the
        last bit.
        """
        hours = {key: stable_sum(vals) for key, vals in self.rows.items()}
        by_lab: dict[str, list[float]] = defaultdict(list)
        for (lab, _rtype), total in hours.items():
            by_lab[lab].append(total)
        lab_totals = {lab: stable_sum(vals) for lab, vals in by_lab.items()}
        fip_totals = {lab: stable_sum(vals) for lab, vals in self.lab_fip.items()}
        out: dict[tuple[str, str], tuple[float, float]] = {}
        for key, total in hours.items():
            lab_total = lab_totals[key[0]]
            fip = fip_totals.get(key[0], 0.0) * total / lab_total if lab_total > 0 else 0.0
            out[key] = (total, fip)
        return out


def summarize_usage(
    records: Iterable[UsageRecord], *, course: CourseDefinition = COURSE
) -> UsageSummary:
    """Group a record stream into a :class:`UsageSummary`, in one pass.

    Records with no lab tag count toward nothing.
    """
    labs = {lab.id for lab in course.labs}
    rows: dict[tuple[str, str], list[float]] = defaultdict(list)
    lab_fip: dict[str, list[float]] = defaultdict(list)
    users: dict[str, UserUsage] = defaultdict(UserUsage)
    project: list[UsageRecord] = []
    for rec in records:
        lab = rec.lab
        if lab is None:
            continue
        if lab == "project":
            project.append(rec)
        elif rec.kind in _INSTANCE_KINDS:
            hours = rec.unit_hours
            rows[(lab, rec.resource_type)].append(hours)
            if rec.user is not None and lab in labs:
                use = users[rec.user]
                use.labs.append(lab)
                use.resource_types.append(rec.resource_type)
                use.hours.append(hours)
        elif rec.kind == "floating_ip":
            hours = rec.unit_hours
            lab_fip[lab].append(hours)
            if rec.user is not None and lab in labs:
                use = users[rec.user]
                use.fip_labs.append(lab)
                use.fip_hours.append(hours)
    return UsageSummary(rows, lab_fip, users, project)
