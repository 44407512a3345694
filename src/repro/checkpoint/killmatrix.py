"""The crash-injection harness: prove resume == uninterrupted, by sweep.

Each :class:`KillCase` wounds one journaled ``run_parallel`` in a
specific, deterministic way and then demands the sha256 of the final
merged record stream equal the uninterrupted *serial* run's digest:

* ``worker-sigkill`` — a worker SIGKILLs its own PID right after
  finishing a chosen shard (a real shard-boundary kill: the whole pool
  breaks, every in-flight batch is lost).  The supervisor must self-heal
  within the same call.
* ``worker-exit`` — the worker raises ``SystemExit`` mid-task instead;
  the pool survives, the batch is lost.  Exercises the task-level branch
  of the :class:`~repro.common.errors.WorkerCrashError` mapping.
* ``halt-resume`` — the *driver* dies: the supervisor abandons the run
  after N journal segments (``SupervisorHalt``), and a fresh call over
  the same journal must finish the semester.
* ``halt-truncate`` — like ``halt-resume``, but the newest segment file
  is truncated mid-frame before resuming (the torn write ``os.replace``
  makes impossible in practice, simulated anyway).  The segment must be
  quarantined, its shards re-executed.
* ``corrupt-segment`` — a byte is flipped deep inside an *older*
  segment's payload: the sha256 check must catch it, quarantine the
  file, and recompute.

The sweep runs cases over seeds × workers ∈ {1, 2, 4} × kill points
(worker kills need a pool, so those rows use workers ≥ 2; driver-death
rows cover workers = 1).  ``python -m repro.verify parallel`` runs the
full sweep as its crash-resume check; ``--quick`` is the CI smoke
subset; ``tests/checkpoint`` drives the same harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.checkpoint.journal import ShardJournal
from repro.common.errors import ValidationError
from repro.core.cohort import CohortConfig, CohortSimulation, plan_cohort
from repro.core.course import CourseDefinition, scaled_course
from repro.core.report import records_digest
from repro.parallel.engine import (
    SupervisedRun,
    SupervisorHalt,
    SupervisorPolicy,
    run_parallel_supervised,
)

WORKER_MODES = ("worker-sigkill", "worker-exit")
HALT_MODES = ("halt-resume", "halt-truncate")
ALL_MODES = WORKER_MODES + HALT_MODES + ("corrupt-segment",)


@dataclass(frozen=True)
class KillCase:
    """One deterministic wound: (mode, seed, workers, kill point)."""

    mode: str
    seed: int
    workers: int
    kill_point: int

    def __post_init__(self) -> None:
        if self.mode not in ALL_MODES:
            raise ValidationError(f"unknown kill mode: {self.mode!r}")
        if self.mode in WORKER_MODES and self.workers < 2:
            raise ValidationError(f"{self.mode} needs a pool (workers >= 2)")

    @property
    def label(self) -> str:
        return f"{self.mode} seed={self.seed} workers={self.workers} k={self.kill_point}"


@dataclass(frozen=True)
class KillOutcome:
    """What one wounded run did, against the uninterrupted serial digest."""

    case: KillCase
    digest_ok: bool
    crashed: bool  # did the injected crash actually fire?
    shards_resumed: int
    shards_retried: int
    worker_crashes: int
    segments_quarantined: int

    @property
    def ok(self) -> bool:
        return self.digest_ok and self.crashed


def _kill_shard_id(course: CourseDefinition, seed: int, kill_point: int) -> str:
    """A deterministic shard boundary to die at, spread across the plan."""
    shards = plan_cohort(course, CohortConfig(seed=seed)).shards()
    return shards[(kill_point * 17 + 3) % len(shards)].shard_id


def _truncate(path: Path, *, keep_fraction: float) -> None:
    data = path.read_bytes()
    keep = max(1, int(len(data) * keep_fraction))
    with open(path, "r+b") as fh:
        fh.truncate(keep)


def _flip_byte(path: Path, offset_fraction: float = 0.7) -> None:
    data = bytearray(path.read_bytes())
    pos = min(len(data) - 1, int(len(data) * offset_fraction))
    data[pos] ^= 0xFF
    with open(path, "r+b") as fh:
        fh.seek(pos)
        fh.write(bytes([data[pos]]))


def run_case(
    case: KillCase,
    course: CourseDefinition,
    serial_digest: str,
    journal_dir: str | Path,
) -> KillOutcome:
    """Execute one case against a fresh journal directory."""
    config = CohortConfig(seed=case.seed)
    run: SupervisedRun
    crashed = False

    if case.mode in WORKER_MODES:
        policy = SupervisorPolicy(
            crash_after_shards=(_kill_shard_id(course, case.seed, case.kill_point),),
            crash_mode="sigkill" if case.mode == "worker-sigkill" else "exit",
        )
        records, run = run_parallel_supervised(
            course, config, workers=case.workers, journal_dir=journal_dir, policy=policy
        )
        crashed = run.telemetry.worker_crashes > 0
    else:
        halt = SupervisorPolicy(halt_after_segments=case.kill_point)
        try:
            run_parallel_supervised(
                course, config, workers=case.workers, journal_dir=journal_dir, policy=halt
            )
        except SupervisorHalt:
            crashed = True
        journal = ShardJournal(journal_dir)
        segments = journal.segment_paths()
        if case.mode == "halt-truncate" and segments:
            # odd kill points cut mid-payload, even ones mid-header — both
            # torn-write shapes the frame must catch
            _truncate(segments[-1], keep_fraction=0.6 if case.kill_point % 2 else 0.002)
        elif case.mode == "corrupt-segment" and segments:
            _flip_byte(segments[0])
        records, run = run_parallel_supervised(
            course, config, workers=case.workers, journal_dir=journal_dir
        )

    return KillOutcome(
        case=case,
        digest_ok=records_digest(records) == serial_digest,
        crashed=crashed,
        shards_resumed=run.telemetry.shards_resumed,
        shards_retried=run.telemetry.shards_retried,
        worker_crashes=run.telemetry.worker_crashes,
        segments_quarantined=run.telemetry.segments_quarantined,
    )


def sweep_cases(*, quick: bool = False, seeds: tuple[int, ...] | None = None) -> list[KillCase]:
    """The kill matrix: modes × seeds × workers ∈ {1, 2, 4} × kill points."""
    cases: list[KillCase] = []
    if quick:
        for seed in seeds or (42,):
            cases += [
                KillCase("worker-sigkill", seed, 2, 0),
                KillCase("worker-sigkill", seed, 4, 1),
                KillCase("worker-exit", seed, 2, 1),
                KillCase("halt-resume", seed, 1, 1),
                KillCase("halt-resume", seed, 2, 2),
                KillCase("halt-resume", seed, 4, 1),
                KillCase("halt-truncate", seed, 1, 1),  # mid-payload cut
                KillCase("halt-truncate", seed, 4, 2),  # mid-header cut
                KillCase("corrupt-segment", seed, 2, 2),
            ]
        return cases
    for seed in seeds or (42, 7):
        for mode in WORKER_MODES:
            for workers in (2, 4):
                for kill_point in (0, 1, 2):
                    cases.append(KillCase(mode, seed, workers, kill_point))
        for mode in HALT_MODES:
            for workers in (1, 2, 4):
                for kill_point in (1, 2, 3):
                    cases.append(KillCase(mode, seed, workers, kill_point))
        for workers in (1, 2):
            cases.append(KillCase("corrupt-segment", seed, workers, 2))
    return cases


def run_kill_matrix(
    journal_root: str | Path,
    *,
    quick: bool = False,
    scale: float = 0.25,
    seeds: tuple[int, ...] | None = None,
) -> list[KillOutcome]:
    """Run the sweep; one fresh journal dir per case under ``journal_root``."""
    course = scaled_course(scale)
    cases = sweep_cases(quick=quick, seeds=seeds)
    serial: dict[int, str] = {}
    outcomes: list[KillOutcome] = []
    root = Path(journal_root)
    for i, case in enumerate(cases):
        if case.seed not in serial:
            serial[case.seed] = records_digest(
                CohortSimulation(course, CohortConfig(seed=case.seed)).run()
            )
        journal_dir = root / f"case-{i:03d}"
        outcomes.append(run_case(case, course, serial[case.seed], journal_dir))
    return outcomes
