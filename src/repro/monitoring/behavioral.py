"""Template-based behavioral testing (CheckList-style).

The lab applies "template-based unit tests to ensure behavioral
robustness" (paper §3.7, citing Ribeiro et al.'s CheckList).  Three test
kinds over a prediction function:

* **MFT** (minimum functionality): templated inputs with expected labels.
* **INV** (invariance): perturbations must not change the prediction.
* **DIR** (directional): perturbations must move a score in the expected
  direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.common.errors import ValidationError


class TestOutcome(str, Enum):
    PASSED = "passed"
    FAILED = "failed"


@dataclass(frozen=True)
class CaseResult:
    case: Any
    outcome: TestOutcome
    detail: str = ""


@dataclass(frozen=True)
class TestReport:
    name: str
    kind: str
    results: tuple[CaseResult, ...]

    @property
    def pass_rate(self) -> float:
        if not self.results:
            return 1.0
        return sum(1 for r in self.results if r.outcome is TestOutcome.PASSED) / len(self.results)

    @property
    def failed_cases(self) -> list[CaseResult]:
        return [r for r in self.results if r.outcome is TestOutcome.FAILED]


@dataclass
class BehavioralTest:
    """One behavioral test over a model callable."""

    name: str
    kind: str  # "mft" | "inv" | "dir"
    cases: list[Any] = field(default_factory=list)
    expected: list[Any] = field(default_factory=list)  # MFT only
    perturb: Callable[[Any], Any] | None = None  # INV/DIR
    direction: Callable[[Any, Any], bool] | None = None  # DIR: (before, after) -> ok

    def __post_init__(self) -> None:
        if self.kind not in ("mft", "inv", "dir"):
            raise ValidationError(f"unknown test kind {self.kind!r}")
        if self.kind == "mft" and len(self.cases) != len(self.expected):
            raise ValidationError("MFT needs one expected label per case")
        if self.kind in ("inv", "dir") and self.perturb is None:
            raise ValidationError(f"{self.kind} tests need a perturbation")
        if self.kind == "dir" and self.direction is None:
            raise ValidationError("DIR tests need a direction predicate")

    def run(self, predict: Callable[[Any], Any]) -> TestReport:
        results: list[CaseResult] = []
        for i, case in enumerate(self.cases):
            if self.kind == "mft":
                got = predict(case)
                ok = got == self.expected[i]
                detail = "" if ok else f"expected {self.expected[i]!r}, got {got!r}"
            elif self.kind == "inv":
                before = predict(case)
                after = predict(self.perturb(case))
                ok = before == after
                detail = "" if ok else f"prediction changed: {before!r} -> {after!r}"
            else:  # dir
                before = predict(case)
                after = predict(self.perturb(case))
                ok = self.direction(before, after)
                detail = "" if ok else f"direction violated: {before!r} -> {after!r}"
            results.append(
                CaseResult(case, TestOutcome.PASSED if ok else TestOutcome.FAILED, detail)
            )
        return TestReport(self.name, self.kind, tuple(results))


class BehavioralSuite:
    """The 'unified test suite' the lab assembles (paper §3.7)."""

    def __init__(self, *, min_pass_rate: float = 0.95) -> None:
        if not (0 <= min_pass_rate <= 1):
            raise ValidationError(f"pass rate must be in [0,1]: {min_pass_rate!r}")
        self.min_pass_rate = min_pass_rate
        self.tests: list[BehavioralTest] = []

    def add(self, test: BehavioralTest) -> "BehavioralSuite":
        self.tests.append(test)
        return self

    def run(self, predict: Callable[[Any], Any]) -> dict[str, TestReport]:
        return {t.name: t.run(predict) for t in self.tests}

    def gate(self, predict: Callable[[Any], Any]) -> tuple[bool, dict[str, TestReport]]:
        """Promotion gate: every test must clear the suite's pass rate."""
        reports = self.run(predict)
        ok = all(r.pass_rate >= self.min_pass_rate for r in reports.values())
        return ok, reports
