"""``python -m repro.faults`` flag handling."""

import pytest

from repro.faults import __main__ as faults_cli
from repro.faults.__main__ import main as faults_main


def test_whatif_with_json_stdout_is_usage_error(capsys):
    """The JSON summary has no what-if, so the pair is refused, not dropped."""
    with pytest.raises(SystemExit) as exc:
        faults_main(["--outage-rate", "0.3", "--scale", "0.25", "--whatif", "--json", "-"])
    assert exc.value.code == 2
    assert "--whatif" in capsys.readouterr().err


def test_workers_below_one_is_usage_error(capsys):
    """Refused before anything is planned, not a traceback after it."""
    with pytest.raises(SystemExit) as exc:
        faults_main(["--scale", "0.1", "--workers", "0"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--scale", "0"],
        ["--scale", "-0.5"],
        ["--scale", "nan"],
        ["--outage-rate", "-0.1"],
        ["--hazard-rate", "-2"],
        ["--burst-rate", "-1"],
        ["--outage-rate", "inf"],
    ],
)
def test_bad_scale_or_rate_is_usage_error(capsys, argv):
    """Refused by the parser (exit 2), not a ValidationError traceback (exit 1)."""
    with pytest.raises(SystemExit) as exc:
        faults_main(argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--seed", "-1"], "cohort seed must be a non-negative integer: -1"),
        (["--fault-seed", "-1"], "fault-plan seed must be a non-negative integer: -1"),
    ],
    ids=("seed", "fault-seed"),
)
def test_negative_seed_is_usage_error(monkeypatch, capsys, tmp_path, argv, message):
    """Refused by the parser (exit 2) before any cohort runs, not numpy's
    ``expected non-negative integer`` traceback; no summary is written."""

    def no_run(*args, **kwargs):
        raise AssertionError("a cohort ran before the flags were checked")

    monkeypatch.setattr(faults_cli, "run_parallel", no_run)
    summary = tmp_path / "summary.json"
    with pytest.raises(SystemExit) as exc:
        faults_main(["--scale", "0.1", *argv, "--json", str(summary)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"python -m repro.faults: error: {message}" in err
    assert "Traceback" not in err
    assert not summary.exists()
