"""The run manifest: journals are keyed to their inputs, staleness is loud."""

import dataclasses
import json

import pytest

from repro.checkpoint.manifest import (
    RunManifest,
    StaleJournalError,
    course_fingerprint,
    fault_model_digest,
)
from repro.core.cohort import CohortConfig, plan_cohort
from repro.core.course import scaled_course
from repro.faults.plan import FaultPlanConfig, build_fault_calendar
from repro.faults.sweep import FaultSweep

COURSE = scaled_course(0.25)


def manifest_for(seed=42, course=COURSE):
    plan = plan_cohort(course, CohortConfig(seed=seed))
    return RunManifest.for_run(plan, course, seed=seed)


class TestFingerprints:
    def test_course_fingerprint_moves_with_the_course(self):
        assert course_fingerprint(COURSE) == course_fingerprint(scaled_course(0.25))
        assert course_fingerprint(COURSE) != course_fingerprint(scaled_course(0.5))

    def test_no_fault_model_is_the_dash_sentinel(self):
        assert fault_model_digest(None) == "-"

    def test_fault_sweep_digest_is_stable_and_seed_sensitive(self):
        def sweep(seed):
            calendar = build_fault_calendar(
                FaultPlanConfig(seed=seed, outage_rate_per_week=0.2), horizon_hours=100.0
            )
            return FaultSweep(calendar)

        assert fault_model_digest(sweep(1)) == fault_model_digest(sweep(1))
        assert fault_model_digest(sweep(1)) != fault_model_digest(sweep(2))
        assert fault_model_digest(sweep(1)) != "-"


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = manifest_for()
        manifest.save(tmp_path)
        assert RunManifest.load(tmp_path) == manifest

    def test_missing_manifest_loads_as_none(self, tmp_path):
        assert RunManifest.load(tmp_path) is None

    def test_unreadable_manifest_is_a_stale_journal(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(StaleJournalError, match="unreadable manifest"):
            RunManifest.load(tmp_path)

    def test_missing_fields_are_a_stale_journal(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"seed": 42}')
        with pytest.raises(StaleJournalError, match="missing fields"):
            RunManifest.load(tmp_path)

    def test_extra_include_project_field_still_matches(self, tmp_path):
        """Manifests once carried ``include_project``; a journal saved with
        it loads, ignores the key, and matches the same run."""
        manifest = manifest_for()
        saved = {**dataclasses.asdict(manifest), "include_project": True}
        (tmp_path / "manifest.json").write_text(json.dumps(saved, indent=2, sort_keys=True))
        RunManifest.load(tmp_path).require_match(manifest, journal_dir=tmp_path)


class TestMatching:
    def test_identical_runs_match(self):
        manifest_for().require_match(manifest_for())

    def test_seed_change_is_named_in_the_diagnostic(self):
        diffs = manifest_for(seed=42).mismatches(manifest_for(seed=7))
        assert any(d.startswith("seed:") for d in diffs)
        with pytest.raises(StaleJournalError, match="seed"):
            manifest_for(seed=42).require_match(manifest_for(seed=7), journal_dir="runs/x")

    def test_course_change_mismatches(self):
        other = manifest_for(course=scaled_course(0.5))
        diffs = manifest_for().mismatches(other)
        assert any(d.startswith("course_digest:") for d in diffs)
        assert any(d.startswith("shard_count:") for d in diffs)
