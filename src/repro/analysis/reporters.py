"""Text, JSON, and GitHub Actions reporters over an :class:`AnalysisResult`."""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisResult
from repro.analysis.registry import RULES, WHOLE_PROGRAM_RULES, rule_description


def _summary(result: AnalysisResult) -> str:
    n, s = len(result.findings), len(result.suppressed)
    return (
        f"{result.files_checked} files checked: {n} new finding{'s' if n != 1 else ''}, "
        f"{s} suppressed inline"
    )


def render_text(result: AnalysisResult, *, stats: bool = False) -> str:
    lines = [f.render() for f in result.findings]
    if stats:
        lines.extend(_render_stats(result))
    lines.append(_summary(result))
    return "\n".join(lines)


def _render_stats(result: AnalysisResult) -> list[str]:
    per_rule = result.stats()
    lines = ["", "per-rule counts (new / suppressed):"]
    for rule_id in sorted(set(per_rule) | set(RULES) | set(WHOLE_PROGRAM_RULES)):
        counts = per_rule.get(rule_id, {"new": 0, "suppressed": 0})
        desc = rule_description(rule_id)
        lines.append(
            f"  {rule_id:<8} {counts['new']:>4} / {counts['suppressed']:>4}  {desc}"
        )
    lines.append("")
    return lines


def render_json(result: AnalysisResult, *, stats: bool = False) -> str:
    payload: dict = {
        "files_checked": result.files_checked,
        "findings": [
            {
                "file": f.file,
                "line": f.line,
                "rule_id": f.rule_id,
                "severity": f.severity.value,
                "message": f.message,
            }
            for f in result.findings
        ],
        "suppressed": [
            {
                "file": s.finding.file,
                "line": s.finding.line,
                "rule_id": s.finding.rule_id,
                "reason": s.reason,
            }
            for s in result.suppressed
        ],
    }
    if stats:
        payload["stats"] = result.stats()
    return json.dumps(payload, indent=2)


def _gh_escape(text: str) -> str:
    """GitHub Actions workflow-command escaping for message data."""
    return text.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(result: AnalysisResult) -> str:
    """GitHub Actions ``::error`` annotations, one per finding.

    Every finding annotates as an error regardless of rule severity: each
    one fails the job.
    """
    lines = [
        f"::error file={f.file},line={f.line},title={f.rule_id}::{_gh_escape(f.message)}"
        for f in result.findings
    ]
    lines.append(_summary(result))
    return "\n".join(lines)
