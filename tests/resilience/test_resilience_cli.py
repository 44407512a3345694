"""The resilience CLI: storm flags build the ladder's ``StormConfig``, and
flags that would be silently ignored are refused with exit status 2."""

import json
from dataclasses import fields

import pytest

from repro.resilience import __main__ as resilience_cli
from repro.resilience.__main__ import STORM_FLAGS, main
from repro.resilience.scenario import StormConfig


def test_every_storm_flag_names_a_storm_config_field():
    names = {f.name for f in fields(StormConfig)}
    assert all(field in names for _, field, _, _ in STORM_FLAGS)


def test_storm_flags_with_sweep_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--sweep", "--quick", "--seed", "12", "--rpd", "1e7"])
    assert exc.value.code == 2
    assert "--seed, --rpd" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--quick", "--phase-map"])
def test_sweep_only_flags_without_sweep_exit_2(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--storm", flag])
    assert exc.value.code == 2
    assert "only with --sweep" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["--workers", "0"], "--workers must be at least 1: 0"),
        (["--sweep", "--quick", "--workers", "-1"], "--workers must be at least 1: -1"),
        (["--rpd", "nan"], "requests_per_day must be a positive number: nan"),
        (["--rpd", "0"], "requests_per_day must be a positive number: 0.0"),
        (["--queue-cap", "0"], "queue_capacity must be positive: 0"),
        (["--budget-fill", "-1"], "retry_budget_fill must be a non-negative number: -1.0"),
        (["--replicas", "0"], "max_replicas must be at least 1: 0"),
        (["--replicas", "-2"], "max_replicas must be at least 1: -2"),
        (["--seed", "-1"], "storm seed must be a non-negative integer: -1"),
    ],
    ids=("workers", "sweep-workers", "rpd-nan", "rpd-zero", "queue-cap", "budget-fill",
         "replicas", "replicas-negative", "seed"),
)
def test_bad_value_is_usage_error(monkeypatch, capsys, argv, message):
    """Refused by the parser (exit 2) before any storm runs, not a
    ValidationError or numpy traceback from inside the ladder."""

    def no_run(*args, **kwargs):
        raise AssertionError("a storm ran before the flags were checked")

    monkeypatch.setattr(resilience_cli, "run_storm", no_run)
    monkeypatch.setattr(resilience_cli, "run_sweep", no_run)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.resilience")
    assert f"python -m repro.resilience: error: {message}" in err
    assert "Traceback" not in err


def test_storm_flags_reach_the_ladder(capsys):
    """Unset flags keep ``StormConfig``'s defaults; the digest is the
    pinned quick-storm digest of ``test_scenario.py``."""
    argv = ["--storm", "--duration-s", "600", "--outage-start-s", "150",
            "--outage-end-s", "240", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    storm = StormConfig(duration_s=600.0, outage_start_s=150.0, outage_end_s=240.0)
    assert payload["config"] == repr(storm)
    assert payload["digest"] == (
        "e6746398e42b3c5cf849098c8f3ca536dbce6180b739e6f4220f8238e9ee1e12"
    )
