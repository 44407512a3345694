"""The run manifest: keys a journal to the exact inputs that produced it.

A journal is only as trustworthy as the guarantee that it was written by
*this* run's plan.  Resuming a stale journal — same directory, but the
course was rescaled, the seed changed, or a different fault plan was
swept in — would merge records from two different simulated semesters
into one digest-plausible but meaningless stream.  The manifest makes
that impossible: it pins (course digest, seed, cohort size, fault-plan
digest) plus the resolved plan's own fingerprint, is written atomically
next to the segments, and any mismatch on resume raises
:class:`StaleJournalError` naming the fields that moved.

The plan fingerprint subsumes the named keys (every activity's resolved
times are hashed), but the keys are kept as first-class fields so the
``--inspect`` report and the mismatch diagnostic speak in terms a person
can act on ("seed 42 != 7") rather than "two hashes differ".
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.checkpoint.journal import atomic_write_bytes
from repro.common.errors import ReproError, ValidationError

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


class StaleJournalError(ReproError):
    """A journal's manifest does not match the run trying to resume it."""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def course_fingerprint(course: object) -> str:
    """Digest of the full course definition (labs, project, enrollment).

    ``CourseDefinition`` is a frozen dataclass tree of scalars, so its
    ``repr`` is a stable canonical form.
    """
    return _sha(repr(course))


def fault_model_digest(faults: object | None) -> str:
    """Digest of the fault model a plan was swept with (``"-"`` = none).

    The canonical :class:`~repro.faults.sweep.FaultSweep` carries its
    resolved calendar, a frozen dataclass, so hashing its repr pins every
    window and hazard draw; the sweep's retry policies are constants of
    its module, part of the code version like the planner itself.  Other
    :class:`~repro.core.cohort.FaultModel` implementations fall back to
    their own repr.
    """
    if faults is None:
        return "-"
    return _sha(repr(getattr(faults, "calendar", faults)))


def plan_fingerprint(plan: object) -> str:
    """Digest over every resolved shard of a :class:`~repro.core.cohort.CohortPlan`.

    Hash of the admitted activities (absolute starts, durations, flavors
    — everything execution consumes), so two plans collide only if they
    would execute identically.  Hashed over the pickled shard tuple
    rather than reprs: pickling a full-scale plan is ~10x cheaper, and
    this fingerprint is on the journaled hot path, inside the <=5%
    overhead budget of ``benchmarks/bench_checkpoint.py``.  Pickle
    memoizes objects that shards share (a shard's activities share one
    user string), so equal plans built by different code can pickle to
    different bytes: the fingerprint is stable within one code version,
    not across versions.  A journal written by another version may
    refuse to resume (``StaleJournalError``) even for an equal plan.
    """
    h = hashlib.sha256()
    h.update(repr(getattr(plan, "semester_hours", None)).encode())
    h.update(repr(getattr(plan, "quota", None)).encode())
    shards = plan.shards()  # type: ignore[attr-defined]
    h.update(pickle.dumps(tuple(shards), protocol=5))
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """What a journal was written for; all fields participate in matching."""

    course_digest: str
    seed: int
    cohort_size: int
    fault_digest: str
    shard_count: int
    plan_digest: str
    format_version: int = FORMAT_VERSION

    # -- construction ------------------------------------------------------

    @classmethod
    def for_run(
        cls,
        plan: object,
        course: object,
        *,
        seed: int,
        faults: object | None = None,
    ) -> "RunManifest":
        shards = plan.shards()  # type: ignore[attr-defined]
        return cls(
            course_digest=course_fingerprint(course),
            seed=seed,
            cohort_size=int(getattr(course, "enrollment", len(shards))),
            fault_digest=fault_model_digest(faults),
            shard_count=len(shards),
            plan_digest=plan_fingerprint(plan),
        )

    # -- persistence -------------------------------------------------------

    def save(self, journal_dir: str | os.PathLike[str]) -> Path:
        path = Path(journal_dir) / MANIFEST_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, json.dumps(asdict(self), indent=2, sort_keys=True).encode())
        return path

    @classmethod
    def load(cls, journal_dir: str | os.PathLike[str]) -> "RunManifest | None":
        path = Path(journal_dir) / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            raw = json.loads(path.read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StaleJournalError(
                f"unreadable manifest at {path}: {exc}; the journal cannot be "
                f"trusted — move it aside or delete the directory"
            ) from None
        known = {f: raw[f] for f in cls.__dataclass_fields__ if f in raw}
        missing = set(cls.__dataclass_fields__) - set(known)
        if missing:
            raise StaleJournalError(
                f"manifest at {path} is missing fields {sorted(missing)}; "
                f"written by an incompatible version?"
            )
        try:
            return cls(**known)
        except (TypeError, ValidationError) as exc:
            raise StaleJournalError(f"malformed manifest at {path}: {exc}") from None

    # -- matching ----------------------------------------------------------

    def mismatches(self, other: "RunManifest") -> list[str]:
        """Human-actionable list of fields where ``other`` disagrees."""
        out = []
        for name in self.__dataclass_fields__:
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                out.append(f"{name}: journal has {mine!r}, this run has {theirs!r}")
        return out

    def require_match(self, other: "RunManifest", *, journal_dir: object = "") -> None:
        """Raise :class:`StaleJournalError` unless ``other`` matches exactly."""
        diffs = self.mismatches(other)
        if diffs:
            raise StaleJournalError(
                f"journal at {journal_dir} was written for different inputs and "
                f"cannot be resumed ({'; '.join(diffs)}); point this run at a "
                f"fresh directory or delete the stale journal"
            )
