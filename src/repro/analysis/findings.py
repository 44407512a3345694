"""Finding and severity types shared by every rule and reporter."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings break the determinism/hygiene contract outright;
    ``WARNING`` findings are hazards that need a human look.  Both fail the
    CI gate unless suppressed inline — the split only affects report
    presentation and triage order.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Orders by ``(file, line, rule_id)`` so reports are stable
    regardless of rule registration or traversal order.
    """

    file: str
    line: int
    rule_id: str
    severity: Severity
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule_id} [{self.severity.value}] {self.message}"
