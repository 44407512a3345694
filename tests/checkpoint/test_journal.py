"""The write-ahead segment format: atomic publish, verified load, quarantine."""

import json
import re

import pytest

from repro.checkpoint.journal import MAGIC, JournalLoad, ShardJournal, atomic_write_bytes
from repro.checkpoint.manifest import MANIFEST_NAME
from repro.common.errors import ValidationError
from repro.core.cohort import CohortConfig
from repro.core.course import scaled_course
from repro.parallel.engine import run_parallel_supervised


@pytest.fixture()
def journal(tmp_path):
    return ShardJournal(tmp_path / "journal")


def fill(journal, n=3):
    records = []
    for i in range(n):
        records.append(journal.append([f"shard-{i}a", f"shard-{i}b"], {"segment": i}))
    return records


class TestAppendLoadRoundtrip:
    def test_roundtrip_preserves_payloads_and_shard_ids(self, journal):
        fill(journal)
        loaded = journal.load()
        assert isinstance(loaded, JournalLoad)
        assert loaded.quarantined == ()
        assert [rec.shard_ids for rec, _ in loaded.entries] == [
            ("shard-0a", "shard-0b"), ("shard-1a", "shard-1b"), ("shard-2a", "shard-2b"),
        ]
        assert [payload for _, payload in loaded.entries] == [
            {"segment": 0}, {"segment": 1}, {"segment": 2},
        ]
        assert loaded.shard_ids == (
            "shard-0a", "shard-0b", "shard-1a", "shard-1b", "shard-2a", "shard-2b",
        )

    def test_reopened_journal_appends_after_existing_segments(self, journal):
        fill(journal, n=2)
        reopened = ShardJournal(journal.root)
        rec = reopened.append(["late"], "tail")
        assert rec.index == 2
        assert [r.index for r, _ in reopened.load().entries] == [0, 1, 2]

    def test_empty_shard_ids_rejected(self, journal):
        with pytest.raises(ValidationError):
            journal.append([], "payload")

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "manifest.json"
        atomic_write_bytes(target, b"{}")
        assert target.read_bytes() == b"{}"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


class TestVerifiedLoad:
    def test_truncation_mid_payload_is_quarantined(self, journal):
        fill(journal)
        victim = journal.segment_paths()[1]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) - 4])
        loaded = journal.load()
        assert [rec.shard_ids for rec, _ in loaded.entries] == [
            ("shard-0a", "shard-0b"), ("shard-2a", "shard-2b"),
        ]
        assert len(loaded.quarantined) == 1
        assert "payload length mismatch" in loaded.quarantined[0].reason
        assert loaded.quarantined[0].path.endswith(".quarantined")

    def test_truncation_inside_header_is_quarantined(self, journal):
        fill(journal, n=1)
        victim = journal.segment_paths()[0]
        victim.write_bytes(victim.read_bytes()[: len(MAGIC) + 6])
        loaded = journal.load()
        assert loaded.entries == ()
        assert "truncated inside the header" in loaded.quarantined[0].reason

    def test_bad_magic_is_quarantined(self, journal):
        fill(journal, n=1)
        victim = journal.segment_paths()[0]
        victim.write_bytes(b"GARBAGE" + victim.read_bytes()[7:])
        loaded = journal.load()
        assert "bad magic" in loaded.quarantined[0].reason

    def test_payload_bit_flip_fails_the_sha(self, journal):
        fill(journal, n=1)
        victim = journal.segment_paths()[0]
        data = bytearray(victim.read_bytes())
        data[-3] ^= 0xFF
        victim.write_bytes(bytes(data))
        loaded = journal.load()
        assert loaded.entries == ()
        assert "sha256 mismatch" in loaded.quarantined[0].reason

    def test_quarantined_file_is_renamed_and_segment_gone(self, journal):
        fill(journal, n=1)
        victim = journal.segment_paths()[0]
        victim.write_bytes(b"")
        journal.load()
        assert journal.segment_paths() == []
        assert len(journal.quarantined_paths()) == 1

    def test_quarantine_never_frees_an_index_for_reuse(self, journal):
        fill(journal, n=2)
        journal.segment_paths()[1].write_bytes(b"")
        journal.load()  # quarantines segment 1
        rec = journal.append(["replacement"], "again")
        assert rec.index == 2
        names = {p.name for p in journal.segment_paths()}
        assert "segment-000001.seg" not in names


class TestHealth:
    def test_health_reports_damage_without_quarantining(self, journal):
        fill(journal)
        victim = journal.segment_paths()[2]
        data = victim.read_bytes()
        victim.write_bytes(data[: len(data) - 4])
        report = journal.health()
        assert report["segments_ok"] == 2
        assert report["segments_damaged"] == 1
        assert report["shards_covered"] == 4
        # non-destructive: the damaged file is still in place
        assert len(journal.segment_paths()) == 3
        assert json.dumps(report)  # JSON-serializable for --inspect --json


class TestMissingDirectory:
    """Only writing creates a journal's directory."""

    @pytest.mark.parametrize("read", ("load", "health"))
    def test_reading_a_missing_directory_raises_and_creates_nothing(self, tmp_path, read):
        root = tmp_path / "typo" / "journal"
        journal = ShardJournal(root)
        with pytest.raises(ValidationError, match=re.escape(str(root))):
            getattr(journal, read)()
        assert list(tmp_path.iterdir()) == []

    def test_first_append_creates_the_nested_directory(self, tmp_path):
        root = tmp_path / "runs" / "seed42"
        journal = ShardJournal(root)
        assert not root.exists()
        assert journal.append(["only"], "payload").index == 0
        assert journal.load().shard_ids == ("only",)

    def test_supervised_run_journals_into_a_new_nested_directory(self, tmp_path):
        root = tmp_path / "runs" / "seed42"
        _, run = run_parallel_supervised(
            scaled_course(0.25), CohortConfig(seed=42), workers=1, journal_dir=root
        )
        assert (root / MANIFEST_NAME).is_file()
        assert len(ShardJournal(root).segment_paths()) == run.telemetry.segments_appended > 0
