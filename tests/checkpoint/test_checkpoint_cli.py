"""``python -m repro.checkpoint``: ``--inspect`` reads, ``--resume`` runs."""

import json

import pytest

from repro.checkpoint.__main__ import main
from repro.core.cohort import CohortConfig
from repro.core.course import scaled_course
from repro.core.report import records_digest
from repro.parallel.engine import run_parallel

SCALE = 0.1
SEED = 7


def run_cli(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def journal(tmp_path):
    """A complete journal of the 19-student cohort."""
    path = tmp_path / "journal"
    run_parallel(scaled_course(SCALE), CohortConfig(seed=SEED), workers=1, journal_dir=path)
    return path


def test_inspect_healthy_journal_exits_zero(capsys, journal):
    code, out, _ = run_cli(capsys, "--inspect", "--journal", str(journal), "--json", "-")
    report = json.loads(out)
    assert code == 0
    assert report["segments_ok"] >= 1 and report["segments_damaged"] == 0
    assert report["manifest"]["seed"] == SEED


def test_inspect_flipped_byte_exits_one_and_renames_nothing(capsys, journal):
    segment = sorted(journal.glob("segment-*.seg"))[-1]
    data = bytearray(segment.read_bytes())
    data[-1] ^= 0xFF
    segment.write_bytes(bytes(data))
    code, out, _ = run_cli(capsys, "--inspect", "--journal", str(journal), "--json", "-")
    report = json.loads(out)
    assert code == 1
    assert [d["path"] for d in report["damaged"]] == [str(segment)]
    assert segment.exists() and not list(journal.glob("*.quarantined"))


def test_inspect_missing_path_exits_two_and_creates_nothing(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "journal"
    code, _, err = run_cli(capsys, "--inspect", "--journal", str(missing))
    assert code == 2
    assert str(missing) in err
    assert not (tmp_path / "no").exists()


@pytest.mark.parametrize("flag", [["--seed", "7"], ["--scale", "0.5"], ["--workers", "2"]])
def test_inspect_refuses_resume_flags(capsys, journal, flag):
    code, _, err = run_cli(capsys, "--inspect", "--journal", str(journal), *flag)
    assert code == 2
    assert flag[0] in err


def test_resume_prints_the_run_parallel_digest(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "--resume", "--journal", str(tmp_path / "journal"),
        "--scale", str(SCALE), "--seed", str(SEED), "--workers", "1", "--json", "-",
    )
    want = records_digest(run_parallel(scaled_course(SCALE), CohortConfig(seed=SEED), workers=1))
    assert code == 0
    assert json.loads(out)["digest"] == want


def test_resume_with_workers_below_one_exits_two_and_creates_nothing(capsys, tmp_path):
    journal = tmp_path / "journal"
    code, _, err = run_cli(capsys, "--resume", "--journal", str(journal), "--workers", "0")
    assert code == 2
    assert "--workers" in err
    assert not journal.exists()


@pytest.mark.parametrize("scale", ["-1", "0", "nan"])
def test_resume_with_bad_scale_exits_two_and_creates_nothing(capsys, tmp_path, scale):
    journal = tmp_path / "journal"
    code, _, err = run_cli(capsys, "--resume", "--journal", str(journal), "--scale", scale)
    assert code == 2
    assert "--scale" in err
    assert not journal.exists()


def test_resume_with_negative_seed_exits_two_and_creates_nothing(capsys, tmp_path):
    journal = tmp_path / "journal"
    code, _, err = run_cli(capsys, "--resume", "--journal", str(journal), "--seed", "-1")
    assert code == 2
    assert "cohort seed must be a non-negative integer: -1" in err
    assert "Traceback" not in err
    assert not journal.exists()
