"""The headline property, held under the crash-injection sweep.

``run_parallel(..., journal_dir=...)`` killed at randomized shard
boundaries, halted between segments, truncated mid-frame, or bit-flipped
— and then resumed — must merge sha256-identical to the uninterrupted
serial run.  The quick matrix here is the same one CI runs as the
``crash-resume`` check of ``python -m repro.verify parallel --quick``.
"""

import pytest

from repro.checkpoint.killmatrix import (
    ALL_MODES,
    KillCase,
    run_kill_matrix,
    sweep_cases,
)
from repro.common.errors import ValidationError


@pytest.fixture(scope="module")
def quick_outcomes(tmp_path_factory):
    root = tmp_path_factory.mktemp("killmatrix")
    return run_kill_matrix(root, quick=True)


class TestSweepShape:
    def test_quick_sweep_covers_every_mode(self):
        cases = sweep_cases(quick=True)
        assert {c.mode for c in cases} == set(ALL_MODES)
        assert {c.workers for c in cases} >= {1, 2, 4}

    def test_full_sweep_is_a_superset_in_breadth(self):
        full = sweep_cases()
        assert len(full) > len(sweep_cases(quick=True))
        assert {c.seed for c in full} == {42, 7}

    def test_worker_kill_modes_require_a_pool(self):
        with pytest.raises(ValidationError):
            KillCase("worker-sigkill", seed=42, workers=1, kill_point=0)
        with pytest.raises(ValidationError):
            KillCase("nonsense-mode", seed=42, workers=2, kill_point=0)


class TestQuickMatrix:
    def test_every_case_recovers_to_the_serial_digest(self, quick_outcomes):
        bad = [o.case.label for o in quick_outcomes if not o.digest_ok]
        assert bad == []

    def test_every_injected_crash_actually_fired(self, quick_outcomes):
        dud = [o.case.label for o in quick_outcomes if not o.crashed]
        assert dud == []

    def test_worker_kills_exercise_the_retry_path(self, quick_outcomes):
        worker_rows = [
            o for o in quick_outcomes if o.case.mode in ("worker-sigkill", "worker-exit")
        ]
        assert worker_rows
        assert all(o.worker_crashes >= 1 for o in worker_rows)
        assert all(o.shards_retried > 0 for o in worker_rows)

    def test_damaged_segments_are_quarantined_not_loaded(self, quick_outcomes):
        damage_rows = [
            o for o in quick_outcomes
            if o.case.mode in ("halt-truncate", "corrupt-segment")
        ]
        assert damage_rows
        assert all(o.segments_quarantined >= 1 for o in damage_rows)

    def test_halt_resume_rows_actually_resume_prior_work(self, quick_outcomes):
        resumed = [o for o in quick_outcomes if o.case.mode == "halt-resume"]
        assert resumed
        assert all(o.shards_resumed > 0 for o in resumed)
