"""Column schema: the integer encodings behind the record arrays.

A usage record's string fields draw from tiny vocabularies (6 billing
kinds, 3 sites, ~20 resource types, lab ids, user names), so the
columnar engine stores them as integer codes and only materializes
strings at the digest/record boundary.  Every vocabulary here is
**rank-encoded**: codes are assigned in sorted-string order, so
comparing codes is comparing strings and ``np.lexsort`` over code
columns reproduces :func:`repro.core.usage.canonical_sort_key` exactly.
Users are the one exception — their codes are positional (student index
/ group index, so planning never touches strings) and the schema carries
an explicit code→rank table instead, because ``"student1000"`` sorts
*before* ``"student999"`` lexicographically and a positional code would
silently get that wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cloud.inventory import CHAMELEON_FLAVORS, CHAMELEON_NODE_TYPES, EDGE_DEVICE_TYPES
from repro.common.errors import ValidationError
from repro.core.course import CourseDefinition

#: Billing kinds in sorted order — the code IS the lexicographic rank.
KIND_NAMES: tuple[str, ...] = (
    "baremetal",
    "edge",
    "floating_ip",
    "object_storage",
    "server",
    "volume",
)
KIND_CODES: dict[str, int] = {name: code for code, name in enumerate(KIND_NAMES)}

#: Resource-id prefix minted per kind (matches each cloud service's
#: IdGenerator namespace; injective, so (site, kind) determines the
#: canonical id counter).
KIND_PREFIXES: tuple[str, ...] = ("bm", "edge", "fip", "objspan", "vm", "vol")

#: Sites in sorted order (rank-encoded like kinds).
SITE_NAMES: tuple[str, ...] = ("chi@edge", "chi@tacc", "kvm@tacc")
SITE_CODES: dict[str, int] = {name: code for code, name in enumerate(SITE_NAMES)}


def student_user(index: int) -> str:
    """The student user string (shard id and activity user)."""
    return f"student{index:03d}"


def group_user(index: int) -> str:
    """The project-group user string."""
    return f"group{index:02d}"


@dataclass(frozen=True)
class ColumnSchema:
    """Per-cohort encoding tables, derived once from the course.

    ``user`` codes are positional: ``0..n_students-1`` are students,
    ``n_students + g`` is group ``g``.  ``user_rank`` maps a code to the
    lexicographic rank of its user string.  ``rtype_names`` and
    ``lab_names`` are sorted, so their codes are self-ranking.
    """

    n_students: int
    n_groups: int
    rtype_names: tuple[str, ...]
    lab_names: tuple[str, ...]
    rtype_codes: dict[str, int] = field(repr=False)
    lab_codes: dict[str, int] = field(repr=False)
    user_rank: np.ndarray = field(repr=False)  # code -> lexicographic rank

    @classmethod
    def for_course(cls, course: CourseDefinition) -> "ColumnSchema":
        rtypes = sorted(
            {
                *CHAMELEON_FLAVORS,
                *(n.name for n in CHAMELEON_NODE_TYPES.values()),
                *(d.name for d in EDGE_DEVICE_TYPES.values()),
                "floating_ip",
                "block_storage",
                "object_storage",
            }
        )
        labs = sorted({lab.id for lab in course.labs} | {"project"})
        n, g = course.enrollment, course.project.groups
        users = [student_user(i) for i in range(n)] + [group_user(j) for j in range(g)]
        rank = np.empty(n + g, dtype=np.int64)
        rank[np.argsort(np.asarray(users, dtype=object), kind="stable")] = np.arange(n + g)
        return cls(
            n_students=n,
            n_groups=g,
            rtype_names=tuple(rtypes),
            lab_names=tuple(labs),
            rtype_codes={name: code for code, name in enumerate(rtypes)},
            lab_codes={name: code for code, name in enumerate(labs)},
            user_rank=rank,
        )

    def user_code(self, *, student: int | None = None, group: int | None = None) -> int:
        if student is not None:
            return student
        if group is None:
            raise ValidationError("user_code needs a student or a group index")
        return self.n_students + group

    def user_string(self, code: int) -> str:
        if code < self.n_students:
            return student_user(code)
        return group_user(code - self.n_students)


@dataclass
class RecordColumns:
    """One batch of usage records as parallel columns.

    The columnar counterpart of a ``list[UsageRecord]``: row ``i`` is one
    record.  ``project`` is omitted (always ``"course"`` for cohort
    records) and ``resource_id`` does not exist until the canonical merge
    mints it — ids are an artifact of merge order, not of simulation.
    """

    start: np.ndarray  # float64
    end: np.ndarray  # float64
    quantity: np.ndarray  # float64
    kind: np.ndarray  # int8, rank-encoded
    rtype: np.ndarray  # int16, rank-encoded
    site: np.ndarray  # int8, rank-encoded
    user: np.ndarray  # int32, positional (see ColumnSchema)
    lab: np.ndarray  # int16, rank-encoded

    def __post_init__(self) -> None:
        n = len(self.start)
        for name in ("end", "quantity", "kind", "rtype", "site", "user", "lab"):
            if len(getattr(self, name)) != n:
                raise ValidationError(f"ragged record columns: {name} != start length {n}")

    def __len__(self) -> int:
        return len(self.start)

    @classmethod
    def empty(cls) -> "RecordColumns":
        return cls(
            start=np.empty(0, dtype=np.float64),
            end=np.empty(0, dtype=np.float64),
            quantity=np.empty(0, dtype=np.float64),
            kind=np.empty(0, dtype=np.int8),
            rtype=np.empty(0, dtype=np.int16),
            site=np.empty(0, dtype=np.int8),
            user=np.empty(0, dtype=np.int32),
            lab=np.empty(0, dtype=np.int16),
        )

    @classmethod
    def concat(cls, batches: list["RecordColumns"]) -> "RecordColumns":
        if not batches:
            return cls.empty()
        return cls(
            start=np.concatenate([b.start for b in batches]),
            end=np.concatenate([b.end for b in batches]),
            quantity=np.concatenate([b.quantity for b in batches]),
            kind=np.concatenate([b.kind for b in batches]),
            rtype=np.concatenate([b.rtype for b in batches]),
            site=np.concatenate([b.site for b in batches]),
            user=np.concatenate([b.user for b in batches]),
            lab=np.concatenate([b.lab for b in batches]),
        )

    def take(self, idx: np.ndarray) -> "RecordColumns":
        return RecordColumns(
            start=self.start[idx],
            end=self.end[idx],
            quantity=self.quantity[idx],
            kind=self.kind[idx],
            rtype=self.rtype[idx],
            site=self.site[idx],
            user=self.user[idx],
            lab=self.lab[idx],
        )
