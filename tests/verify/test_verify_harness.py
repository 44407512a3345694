"""The verification harness: every applicable check runs, and a broken
contract fails by name (``gate:check``) rather than by accident."""

import json

import pytest

from repro.verify.__main__ import main
from repro.verify.gates import GATES, Gate


def _leaky(quick, *, workers=1, perturb=False, faulted=False):
    """A planted engine whose evaluation order leaks into its digest."""
    return "b" * 64 if perturb else "a" * 64


def _faultless(quick, *, workers=1, perturb=False, faulted=False):
    """A planted engine that ignores its fault plan."""
    return "a" * 64


def test_planted_perturb_mismatch_exits_1_and_names_the_check(monkeypatch, capsys):
    monkeypatch.setitem(GATES, "planted", Gate(_leaky, perturb=True, workers=True))
    assert main(["planted", "--quick"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL planted:perturb" in err
    assert "planted:workers" not in err and "planted:rerun" not in err
    assert "✗" in out


def test_fault_plan_that_changes_nothing_fails(monkeypatch, capsys):
    monkeypatch.setitem(GATES, "planted", Gate(_faultless, faults="optional"))
    assert main(["planted", "--quick"]) == 1
    assert "FAIL planted:fault plan: the fault plan left the digest unchanged" in (
        capsys.readouterr().err
    )


def test_unknown_gate_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["columnar", "no-such-gate"])
    assert exc.value.code == 2
    assert "unknown gate no-such-gate" in capsys.readouterr().err


def test_columnar_quick_gate_passes(capsys):
    """The columnar engine's whole contract, through the harness."""
    assert main(["columnar", "--quick", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    checks = report["gates"]["columnar"]["checks"]
    assert {name: cell["status"] for name, cell in checks.items()} == {
        "rerun": "pass",
        "perturb": "n/a",
        "workers": "pass",
        "fault plan": "pass",
        "oracle": "pass",
        "crash-resume": "n/a",
    }
