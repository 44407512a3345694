"""CLI behaviour: exit codes, formats, --stats, --graph."""

import json

import pytest

from repro.analysis.cli import main

BAD = "import time\nt = time.time()\n"
CLEAN = "x = 1\n"


@pytest.fixture()
def tree(tmp_path, monkeypatch):
    """A temporary tree with one violation, cwd-pinned so relative paths resolve."""
    src = tmp_path / "code"
    src.mkdir()
    (src / "bad.py").write_text(BAD)
    (src / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return src


def test_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.py").write_text(CLEAN)
    assert main(["ok.py"]) == 0
    assert "0 new findings" in capsys.readouterr().out


def test_findings_exit_one_with_text_report(tree, capsys):
    assert main(["code"]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "bad.py:2" in out


def test_json_format(tree, capsys):
    assert main(["code", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 2
    assert payload["findings"][0]["rule_id"] == "DET001"
    assert payload["findings"][0]["line"] == 2


def test_stats_mode(tree, capsys):
    assert main(["code", "--stats"]) == 1
    out = capsys.readouterr().out
    assert "per-rule counts" in out
    assert "DET001" in out and "RES002" in out


def test_select_subset(tree, capsys):
    assert main(["code", "--select", "DET003"]) == 0


def test_unknown_rule_is_usage_error(tree, capsys):
    assert main(["code", "--select", "NOPE999"]) == 2


def test_missing_path_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["does-not-exist"]) == 2


def test_github_format_emits_workflow_annotations(tree, capsys):
    assert main(["code", "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "line=2" in out
    assert "title=DET001" in out


def test_warnings_gate_like_errors(tmp_path, monkeypatch, capsys):
    """Severity orders the report; it never decides the exit code."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "warn.py").write_text("for x in {1, 2}:\n    pass\n")
    assert main(["warn.py"]) == 1
    assert main(["warn.py", "--format", "github"]) == 1
    assert "::error file=warn.py,line=1,title=DET003" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag",
    [
        "--baseline=b.json",
        "--write-baseline",
        "--prune-baseline",
        "--cache=c.json",
        "--min-severity=error",
    ],
)
def test_inline_reason_is_the_only_waiver(tree, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["code", flag])
    assert exc.value.code == 2


def test_whole_program_flag_runs_flow_rules(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "mergex.py").write_text(
        "import numpy as np\n\n\ndef seeded():\n    return np.random.default_rng(7)\n"
    )
    assert main(["repro", "--select", "SEED001"]) == 1  # auto-enables whole-program
    out = capsys.readouterr().out
    assert "SEED001" in out


def test_graph_dump(tree, capsys):
    assert main(["code", "--graph"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "entry_points" in payload
    assert "edges" in payload
    assert payload["modules"] == ["bad", "clean"]

