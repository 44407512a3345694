"""The supervisor loop: typed crash mapping, retry/breaker, journal resume.

All cohorts here are the 48-student quarter-scale course; every digest
assertion is against the uninterrupted serial run, which the equivalence
pack (``tests/parallel``) already ties to the full contract.
"""

import pytest

from repro.checkpoint.manifest import StaleJournalError
from repro.common.errors import PoisonedShardError, ValidationError, WorkerCrashError
from repro.common.retry import RetryPolicy
from repro.core.cohort import CohortConfig, CohortSimulation, plan_cohort
from repro.core.course import scaled_course
from repro.core.report import records_digest
from repro.parallel.engine import (
    SupervisorHalt,
    SupervisorPolicy,
    run_parallel,
    run_parallel_supervised,
)

SMALL = scaled_course(0.25)
SEED = 42

NO_BACKOFF = dict(base_backoff_hours=0.0, max_backoff_hours=0.0)


@pytest.fixture(scope="module")
def serial_digest():
    return records_digest(CohortSimulation(SMALL, CohortConfig(seed=SEED)).run())


def kill_shard(index=3):
    """A real shard id from the plan the supervisor will execute."""
    return plan_cohort(SMALL, CohortConfig(seed=SEED)).shards()[index].shard_id


class TestCrashMapping:
    def test_sigkill_with_no_retry_budget_is_a_typed_worker_crash(self):
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=1, **NO_BACKOFF),
            crash_after_shards=(kill_shard(),),
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            run_parallel_supervised(SMALL, CohortConfig(seed=SEED), workers=2, policy=policy)
        assert kill_shard() in excinfo.value.shard_ids
        assert "BrokenProcessPool" in str(excinfo.value)

    def test_worker_systemexit_with_no_retry_budget_is_a_typed_worker_crash(self):
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=1, **NO_BACKOFF),
            crash_after_shards=(kill_shard(),),
            crash_mode="exit",
        )
        with pytest.raises(WorkerCrashError) as excinfo:
            run_parallel_supervised(SMALL, CohortConfig(seed=SEED), workers=2, policy=policy)
        assert kill_shard() in excinfo.value.shard_ids
        assert "SystemExit" in str(excinfo.value)

    def test_every_attempt_crashing_poisons_the_shard(self):
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=3, **NO_BACKOFF),
            crash_after_shards=(kill_shard(),),
            crash_mode="exit",
            crash_every_attempt=True,
        )
        with pytest.raises(PoisonedShardError) as excinfo:
            run_parallel_supervised(SMALL, CohortConfig(seed=SEED), workers=2, policy=policy)
        err = excinfo.value
        assert kill_shard() in err.shard_ids
        assert err.crash_counts[kill_shard()] == 3
        assert "poisoned" in str(err)
        # the breaker wraps the typed crash, not a bare pool error
        assert isinstance(err.__cause__, WorkerCrashError)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValidationError):
            run_parallel(SMALL, CohortConfig(seed=SEED), workers=0)

    def test_invalid_workers_create_no_journal(self, tmp_path):
        """``workers`` is checked before the plan, the journal or its manifest."""
        journal = tmp_path / "journal"
        with pytest.raises(ValidationError, match="workers"):
            run_parallel_supervised(
                SMALL, CohortConfig(seed=SEED), workers=0, journal_dir=journal
            )
        assert not journal.exists()


class TestRecovery:
    def test_single_sigkill_self_heals_to_the_serial_digest(self, serial_digest):
        policy = SupervisorPolicy(crash_after_shards=(kill_shard(),))
        records, run = run_parallel_supervised(
            SMALL, CohortConfig(seed=SEED), workers=2, policy=policy
        )
        assert records_digest(records) == serial_digest
        assert run.telemetry.worker_crashes == 1
        assert run.telemetry.pool_rebuilds == 1
        assert run.telemetry.shards_retried > 0

    def test_pool_crash_limit_degrades_to_serial_fallback(self, serial_digest):
        policy = SupervisorPolicy(pool_crash_limit=1, crash_after_shards=(kill_shard(),))
        records, run = run_parallel_supervised(
            SMALL, CohortConfig(seed=SEED), workers=2, policy=policy
        )
        assert records_digest(records) == serial_digest
        assert run.telemetry.serial_fallback is True

    def test_in_process_systemexit_is_recovered_in_serial_mode(self, serial_digest):
        policy = SupervisorPolicy(
            crash_after_shards=(kill_shard(),), crash_mode="exit"
        )
        records, run = run_parallel_supervised(
            SMALL, CohortConfig(seed=SEED), workers=1, policy=policy
        )
        # serial mode never arms worker crash orders: nothing to recover,
        # output still exact
        assert records_digest(records) == serial_digest
        assert run.telemetry.worker_crashes == 0


class TestJournalResume:
    def test_halted_run_resumes_to_the_serial_digest(self, tmp_path, serial_digest):
        policy = SupervisorPolicy(halt_after_segments=2)
        with pytest.raises(SupervisorHalt, match="shards durable"):
            run_parallel_supervised(
                SMALL, CohortConfig(seed=SEED), workers=2,
                journal_dir=tmp_path, policy=policy,
            )
        records, run = run_parallel_supervised(
            SMALL, CohortConfig(seed=SEED), workers=2, journal_dir=tmp_path
        )
        assert records_digest(records) == serial_digest
        assert run.telemetry.shards_resumed > 0
        assert run.telemetry.shards_resumed + run.telemetry.shards_executed == (
            run.telemetry.shards_total
        )

    def test_completed_journal_resumes_without_executing(self, tmp_path, serial_digest):
        first = run_parallel(
            SMALL, CohortConfig(seed=SEED), workers=2, journal_dir=tmp_path
        )
        again, run = run_parallel_supervised(
            SMALL, CohortConfig(seed=SEED), workers=2, journal_dir=tmp_path
        )
        assert records_digest(first) == serial_digest
        assert again == first
        assert run.telemetry.shards_executed == 0
        assert run.telemetry.shards_resumed == run.telemetry.shards_total

    def test_resume_with_a_different_seed_is_refused(self, tmp_path):
        run_parallel(SMALL, CohortConfig(seed=SEED), workers=1, journal_dir=tmp_path)
        with pytest.raises(StaleJournalError, match="seed"):
            run_parallel(SMALL, CohortConfig(seed=7), workers=1, journal_dir=tmp_path)

    def test_resume_with_a_different_course_is_refused(self, tmp_path):
        run_parallel(SMALL, CohortConfig(seed=SEED), workers=1, journal_dir=tmp_path)
        with pytest.raises(StaleJournalError, match="course_digest"):
            run_parallel(
                scaled_course(0.5), CohortConfig(seed=SEED), workers=1, journal_dir=tmp_path
            )

    def test_journal_free_run_is_byte_identical_to_serial(self, serial_digest):
        records = run_parallel(SMALL, CohortConfig(seed=SEED), workers=2)
        assert records_digest(records) == serial_digest
        serial = CohortSimulation(SMALL, CohortConfig(seed=SEED)).run()
        assert records == serial
