"""The supervised process-pool executor for cohort shards.

``run_parallel`` = plan (serial, deterministic) → execute shards on
worker processes (each on a private testbed) → merge under the canonical
order.  Workers receive fully resolved :class:`ShardPlan`\\ s — plain
frozen dataclasses of floats and strings — so the only thing crossing
process boundaries is data, never simulator state or RNGs.

Execution runs under a **supervisor loop** (PR 5): completed
:class:`ShardResult` batches are journaled to a
:class:`~repro.checkpoint.journal.ShardJournal` as they arrive, a dead
worker (``BrokenProcessPool``, a SIGKILLed PID, a ``SystemExit`` escaping
a task) surfaces as a typed
:class:`~repro.common.errors.WorkerCrashError` carrying the shard ids
that were in flight, lost shards are re-executed under a bounded
:class:`~repro.common.retry.RetryPolicy`, a per-shard
:class:`~repro.common.breaker.RetryBreaker` turns repeat offenders into
:class:`~repro.common.errors.PoisonedShardError` instead of looping, and
the pool degrades to in-process serial execution once workers keep
dying.  Because the merge is canonical (invariant to shard order and
batch boundaries), none of this recovery machinery can move the output:
a run crashed and resumed at any point merges to the same sha256 as an
uninterrupted serial run — the property ``tests/checkpoint`` holds under
a kill matrix.

This package (this module and :mod:`repro.parallel.pool`) is the one
sanctioned home for process fan-out: the ``repro.analysis`` rule PAR001
flags ``multiprocessing`` / ``concurrent.futures`` imports anywhere
outside ``repro.parallel`` so that every fan-out inherits this
determinism contract.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence

from repro.checkpoint.journal import ShardJournal
from repro.checkpoint.manifest import RunManifest
from repro.common.breaker import RetryBreaker
from repro.cloud.metering import UsageRecord
from repro.cloud.quota import Quota
from repro.cloud.testbed import chameleon
from repro.common.errors import (
    PoisonedShardError,
    ReproError,
    ValidationError,
    WorkerCrashError,
)
from repro.common.retry import RetryPolicy
from repro.core.cohort import (
    CohortConfig,
    CohortPlan,
    FaultModel,
    ShardPlan,
    cleanup_leftovers,
    execute_shard,
    plan_cohort,
)
from repro.core.course import COURSE, CourseDefinition
from repro.core.usage import canonicalize_records
from repro.parallel.pool import _pool_context

#: Each pool round's shards are cut into this many batches (at least one
#: per worker).  Batch boundaries never affect output (the merge is
#: partition-invariant); they set (a) pool load balance — finer batches
#: let a fast worker steal the tail instead of idling, (b) the journal's
#: segment granularity: one segment per arrived batch, so the count is
#: the same for every worker count, which keeps ``halt_after_segments``
#: crash injection deterministic and bounds loss on a crash to one
#: batch.  Journaled and plain runs share the target, so the journal's
#: measured overhead (<=5%, ``benchmarks/bench_checkpoint.py``) is pure
#: persistence cost, not a scheduling artifact.
POOL_BATCH_TARGET = 8


class SupervisorHalt(ReproError):
    """Crash injection: the supervisor abandoned the run mid-flight.

    Raised (after the configured number of journal appends) to simulate
    the *driver* process dying — the journal is left exactly as a real
    crash would leave it, so a subsequent call with the same
    ``journal_dir`` exercises the resume path.
    """


@dataclass(frozen=True)
class SupervisorPolicy:
    """How the supervisor reacts when workers die.

    ``retry`` bounds per-shard re-execution (attempts, not hours — the
    supervisor never sleeps, so only the attempt budget applies);
    ``pool_crash_limit`` is how many consecutive pool losses are
    tolerated before degrading to in-process serial execution, which no
    worker death can touch.

    The ``crash_*`` / ``halt_after_segments`` knobs are deterministic
    crash injection for the kill-matrix harness (``repro.checkpoint``)
    and are inert by default: ``crash_after_shards`` makes the worker
    executing a listed shard die right after finishing it (``sigkill``
    mode SIGKILLs the PID and breaks the whole pool; ``exit`` mode raises
    ``SystemExit``, which the pool survives), each order consumed at
    first dispatch unless ``crash_every_attempt`` keeps it armed.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=3, base_backoff_hours=0.0, max_backoff_hours=0.0
        )
    )
    pool_crash_limit: int = 2
    crash_after_shards: tuple[str, ...] = ()
    crash_mode: str = "sigkill"
    crash_every_attempt: bool = False
    halt_after_segments: int | None = None

    def __post_init__(self) -> None:
        if self.pool_crash_limit < 1:
            raise ValidationError(
                f"pool_crash_limit must be >= 1: {self.pool_crash_limit!r}"
            )
        if self.crash_mode not in ("sigkill", "exit"):
            raise ValidationError(f"unknown crash mode: {self.crash_mode!r}")
        if self.halt_after_segments is not None and self.halt_after_segments < 1:
            raise ValidationError(
                f"halt_after_segments must be >= 1: {self.halt_after_segments!r}"
            )


@dataclass
class EngineTelemetry:
    """Supervisor/journal counters for one execution (wall-clock free)."""

    shards_total: int = 0
    shards_resumed: int = 0
    shards_executed: int = 0
    shards_retried: int = 0
    worker_crashes: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False
    segments_appended: int = 0
    segments_quarantined: int = 0
    events_fired: int = 0


@dataclass(frozen=True)
class ShardResult:
    """One shard's execution outcome (records + loop telemetry)."""

    shard_id: str
    records: tuple[UsageRecord, ...]
    events_fired: int


@dataclass(frozen=True)
class SupervisedRun:
    """Results (in plan-shard order) plus the supervisor's telemetry."""

    results: tuple[ShardResult, ...]
    telemetry: EngineTelemetry


@dataclass(frozen=True)
class _ShardBatch:
    """The self-contained work order shipped to one worker.

    ``crash_after`` / ``crash_mode`` are the kill-matrix injection hooks:
    when set, the worker dies immediately after finishing that shard (so
    the batch's results are lost at a real shard boundary).
    """

    shards: tuple[ShardPlan, ...]
    semester_hours: float
    quota: Quota
    crash_after: str | None = None
    crash_mode: str = "sigkill"


def _execute_batch(batch: _ShardBatch) -> list[ShardResult]:
    """Worker entry point: run each shard on a fresh private testbed.

    Every shard gets the full course quota and lease inventory — safe
    because plan-time admission already guaranteed the *whole cohort*
    fits, so any subset fits a fortiori.
    """
    results: list[ShardResult] = []
    for shard in batch.shards:
        testbed = chameleon(quota=batch.quota)
        execute_shard(shard, testbed, semester_hours=batch.semester_hours)
        fired = testbed.run_until(batch.semester_hours)
        cleanup_leftovers(testbed)
        results.append(
            ShardResult(
                shard_id=shard.shard_id,
                records=tuple(testbed.usage_records()),
                events_fired=fired,
            )
        )
        if batch.crash_after == shard.shard_id:
            if batch.crash_mode == "exit":
                raise SystemExit(13)
            os.kill(os.getpid(), signal.SIGKILL)
    return results


def batch_shards(shards: Sequence[ShardPlan], workers: int) -> list[tuple[ShardPlan, ...]]:
    """Split ``shards`` into at most ``workers`` contiguous batches.

    Shards are already independent (the cohort planner resolved every
    cross-shard dependency), so batching is purely a throughput concern:
    ship each worker a contiguous run of shards big enough to amortize
    the process round-trip.  Contiguity keeps the batching irrelevant to
    the output (the merge is shard-order canonical anyway) while making
    the partition easy to reason about in traces.  Batches are balanced
    by *activity count* rather than shard count, because project-group
    shards carry an order of magnitude more activities than student
    shards: the split is a greedy walk that closes a batch once it holds
    its fair share of the remaining activity weight.
    """
    if workers <= 0:
        raise ValidationError(f"workers must be positive: {workers!r}")
    shards = list(shards)
    if not shards:
        return []
    batch_count = min(workers, len(shards))
    weights = [max(1, s.activity_count) for s in shards]
    remaining_weight = sum(weights)
    batches: list[tuple[ShardPlan, ...]] = []
    start = 0
    for b in range(batch_count):
        remaining_batches = batch_count - b
        if remaining_batches == 1:
            batches.append(tuple(shards[start:]))
            break
        target = remaining_weight / remaining_batches
        taken = 0.0
        end = start
        # leave enough shards for every later batch to get at least one
        while end < len(shards) - (remaining_batches - 1) and (taken == 0 or taken + weights[end] / 2 <= target):
            taken += weights[end]
            end += 1
        batches.append(tuple(shards[start:end]))
        remaining_weight -= taken
        start = end
    return [b for b in batches if b]


# -- the supervisor loop -----------------------------------------------------------


class _Supervisor:
    """Drives one plan to completion across crashes, journaling progress."""

    def __init__(
        self,
        plan: CohortPlan,
        *,
        workers: int,
        journal: ShardJournal | None,
        policy: SupervisorPolicy,
    ) -> None:
        self.plan = plan
        self.workers = workers
        self.journal = journal
        self.policy = policy
        self.shards = plan.shards()
        self.results: dict[str, ShardResult] = {}
        self.breaker = RetryBreaker(policy.retry)
        self.telemetry = EngineTelemetry(shards_total=len(self.shards))
        self._armed_crashes = set(policy.crash_after_shards)
        self._segments_this_run = 0
        self._consecutive_breaks = 0
        self._serial_mode = workers <= 1

    # -- journal interplay -------------------------------------------------

    def _resume_from_journal(self) -> None:
        if self.journal is None:
            return
        known = {s.shard_id for s in self.shards}
        loaded = self.journal.load()
        self.telemetry.segments_quarantined = len(loaded.quarantined)
        for _, payload in loaded.entries:
            for result in payload:  # type: ignore[attr-defined]
                if result.shard_id in known and result.shard_id not in self.results:
                    self.results[result.shard_id] = result
        self.telemetry.shards_resumed = len(self.results)

    def _commit(self, batch_results: list[ShardResult]) -> None:
        """Accept one arrived batch: record, journal, maybe halt."""
        fresh = [r for r in batch_results if r.shard_id not in self.results]
        for result in fresh:
            self.results[result.shard_id] = result
        self.telemetry.shards_executed += len(fresh)
        self.telemetry.events_fired += sum(r.events_fired for r in fresh)
        if self.journal is not None and fresh:
            self.journal.append([r.shard_id for r in fresh], fresh)
            self.telemetry.segments_appended += 1
            self._segments_this_run += 1
            halt_at = self.policy.halt_after_segments
            if halt_at is not None and self._segments_this_run >= halt_at:
                raise SupervisorHalt(
                    f"crash injection: supervisor halted after "
                    f"{self._segments_this_run} journal segments "
                    f"({len(self.results)}/{len(self.shards)} shards durable)"
                )

    # -- crash bookkeeping -------------------------------------------------

    def _record_crash(self, shard_ids: list[str], cause: str) -> None:
        """Count a crash incident and decide: retry, poison, or surface."""
        self.telemetry.worker_crashes += 1
        for sid in shard_ids:
            self.breaker.record_failure(sid)
        # the shared per-key breaker (repro.common.breaker): the first
        # execution is attempt 1, so a shard with c failed attempts has
        # used c-1 retries and trips when retry number c is refused
        exhausted = self.breaker.exhausted(shard_ids)
        crash = WorkerCrashError(
            f"worker crash ({cause}) lost {len(shard_ids)} shard(s): "
            f"{', '.join(sorted(shard_ids)[:8])}"
            f"{'...' if len(shard_ids) > 8 else ''}",
            shard_ids=tuple(sorted(shard_ids)),
        )
        if exhausted:
            if max(exhausted.values()) <= 1:
                # the policy allows no retries at all: surface the typed
                # crash itself rather than a circuit-breaker verdict
                raise crash
            raise PoisonedShardError(
                f"{len(exhausted)} shard(s) crashed their worker on every "
                f"attempt and are poisoned: "
                + ", ".join(f"{sid} x{n}" for sid, n in sorted(exhausted.items()))
                + f" (retry budget {self.policy.retry.max_attempts} attempts); "
                f"completed work is journaled — fix the environment and resume",
                crash_counts=exhausted,
            ) from crash
        self.telemetry.shards_retried += len(shard_ids)

    def _batch_crash_order(self, shards: tuple[ShardPlan, ...]) -> str | None:
        """Consume (or reuse) at most one armed crash order for this batch."""
        for shard in shards:
            if shard.shard_id in self._armed_crashes:
                if not self.policy.crash_every_attempt:
                    self._armed_crashes.discard(shard.shard_id)
                return shard.shard_id
        return None

    # -- execution rounds --------------------------------------------------

    def _pending(self) -> list[ShardPlan]:
        return [s for s in self.shards if s.shard_id not in self.results]

    def _make_batches(self, pending: list[ShardPlan]) -> list[_ShardBatch]:
        if self._serial_mode and self.journal is None:
            target = self.workers  # no pool to balance, nothing to journal
        else:
            target = max(self.workers, POOL_BATCH_TARGET)
        batches = []
        for group in batch_shards(pending, target):
            batches.append(
                _ShardBatch(
                    shards=group,
                    semester_hours=self.plan.semester_hours,
                    quota=self.plan.quota,
                    crash_after=None if self._serial_mode else self._batch_crash_order(group),
                    crash_mode=self.policy.crash_mode,
                )
            )
        return batches

    def _run_serial_round(self, batches: list[_ShardBatch]) -> None:
        for batch in batches:
            try:
                self._commit(_execute_batch(batch))
            except SystemExit:
                # in-process the only recoverable "worker death" is a
                # SystemExit escaping shard execution; count it like a
                # pool crash so the breaker still bounds it
                self._record_crash([s.shard_id for s in batch.shards], "SystemExit in-process")

    def _run_pool_round(self, batches: list[_ShardBatch]) -> None:
        crashed: list[str] = []
        pool_broke = False
        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(batches)), mp_context=_pool_context()
        ) as pool:
            futures = {pool.submit(_execute_batch, b): b for b in batches}
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for fut in done:
                    batch = futures[fut]
                    try:
                        self._commit(fut.result())
                    except BrokenProcessPool:
                        pool_broke = True
                        crashed.extend(s.shard_id for s in batch.shards)
                    except SystemExit:
                        # the pool's worker loop catches BaseException, so
                        # a SystemExit comes back as this future's result
                        # while the pool itself survives
                        crashed.extend(s.shard_id for s in batch.shards)
        if crashed:
            self._record_crash(
                crashed, "BrokenProcessPool" if pool_broke else "worker SystemExit"
            )
        if pool_broke:
            self._consecutive_breaks += 1
            self.telemetry.pool_rebuilds += 1
            if self._consecutive_breaks >= self.policy.pool_crash_limit:
                self._serial_mode = True
                self.telemetry.serial_fallback = True
        else:
            self._consecutive_breaks = 0

    def run(self) -> SupervisedRun:
        self._resume_from_journal()
        while True:
            pending = self._pending()
            if not pending:
                break
            batches = self._make_batches(pending)
            if self._serial_mode or len(batches) <= 1:
                self._run_serial_round(batches)
            else:
                self._run_pool_round(batches)
        ordered = tuple(self.results[s.shard_id] for s in self.shards)
        return SupervisedRun(results=ordered, telemetry=self.telemetry)


# -- public API --------------------------------------------------------------------


def run_parallel_supervised(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    workers: int = 2,
    faults: "FaultModel | None" = None,
    journal_dir: "str | os.PathLike[str] | None" = None,
    policy: SupervisorPolicy | None = None,
) -> tuple[list[UsageRecord], SupervisedRun]:
    """Plan, execute under the supervisor, merge; returns records + telemetry.

    With ``journal_dir``, completed batches are durably framed as they
    arrive and a fresh call over the same journal resumes instead of
    re-executing (see :mod:`repro.checkpoint`).  A
    :class:`~repro.checkpoint.manifest.RunManifest` keyed by (course
    digest, seed, cohort size, fault-plan digest) is validated before any
    journaled shard is trusted — resuming against changed inputs raises
    :class:`~repro.checkpoint.manifest.StaleJournalError` instead of
    silently merging two different semesters.  Crash semantics: lost
    shards are retried within ``policy.retry``'s attempt budget, repeat
    offenders raise :class:`~repro.common.errors.PoisonedShardError`, and
    after ``policy.pool_crash_limit`` consecutive pool losses the
    remainder runs in-process where no worker death can reach it.
    """
    if workers < 1:
        raise ValidationError(f"workers must be positive: {workers!r}")
    cfg = config if config is not None else CohortConfig()
    plan = plan_cohort(course, cfg, faults=faults)
    journal: ShardJournal | None = None
    if journal_dir is not None:
        journal = ShardJournal(journal_dir)
        manifest = RunManifest.for_run(plan, course, seed=cfg.seed, faults=faults)
        existing = RunManifest.load(journal_dir)
        if existing is None:
            manifest.save(journal_dir)
        else:
            existing.require_match(manifest, journal_dir=journal_dir)
    run = _Supervisor(
        plan,
        workers=workers,
        journal=journal,
        policy=policy if policy is not None else SupervisorPolicy(),
    ).run()
    return canonicalize_records([r.records for r in run.results]), run


def run_parallel(
    course: CourseDefinition = COURSE,
    config: CohortConfig | None = None,
    *,
    workers: int = 2,
    faults: "FaultModel | None" = None,
    journal_dir: "str | os.PathLike[str] | None" = None,
) -> list[UsageRecord]:
    """Plan, execute across ``workers`` processes, and canonically merge.

    Digest-identical to ``CohortSimulation(course, config).run()`` for
    every seed and worker count — the equivalence pack in
    ``tests/parallel`` holds this to sha256 equality.  ``faults`` applies
    a plan-time fault sweep (see :class:`repro.core.cohort.FaultModel`);
    because faults are resolved into the static plan before any shard
    executes, the digest contract holds under any fault plan too
    (``tests/faults`` holds that equality as well).  ``journal_dir``
    makes the run crash-safe and resumable with the same digest
    guarantee (``tests/checkpoint`` holds it under a kill matrix); the
    default ``None`` journals nothing and is byte-identical to the
    journal-free baseline.
    """
    records, _ = run_parallel_supervised(
        course, config, workers=workers, faults=faults, journal_dir=journal_dir
    )
    return records


__all__ = [
    "batch_shards",
    "EngineTelemetry",
    "ShardResult",
    "SupervisedRun",
    "SupervisorHalt",
    "SupervisorPolicy",
    "run_parallel",
    "run_parallel_supervised",
]
