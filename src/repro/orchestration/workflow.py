"""Argo-Workflows-like DAG pipelines.

Unit 3's lab ends with "a simplified ML pipeline using Argo Workflows,
triggered manually with dummy steps to simulate the model lifecycle,
including model registration and promotion" (paper §3.3).  The GourmetGram
retraining pipeline in :mod:`repro.mlops` runs on this engine.

Steps are Python callables wired into a DAG.  Each step receives a context
dict holding the outputs of its dependencies; it may return a value that
becomes its output.  Steps support retries, ``when`` guards, and failure
propagation (dependents of a failed step are skipped).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from repro.common.errors import ConflictError, NotFoundError, ValidationError


class StepStatus(str, Enum):
    PENDING = "Pending"
    SUCCEEDED = "Succeeded"
    FAILED = "Failed"
    SKIPPED = "Skipped"


@dataclass(frozen=True)
class WorkflowStep:
    """One node of the pipeline DAG."""

    name: str
    fn: Callable[[dict[str, Any]], Any]
    dependencies: tuple[str, ...] = ()
    retries: int = 0
    when: Callable[[dict[str, Any]], bool] | None = None


@dataclass
class StepResult:
    status: StepStatus
    output: Any = None
    error: str = ""
    attempts: int = 0


@dataclass
class Workflow:
    """A named DAG of steps."""

    name: str
    steps: dict[str, WorkflowStep] = field(default_factory=dict)

    def add_step(
        self,
        name: str,
        fn: Callable[[dict[str, Any]], Any],
        *,
        dependencies: tuple[str, ...] | list[str] = (),
        retries: int = 0,
        when: Callable[[dict[str, Any]], bool] | None = None,
    ) -> WorkflowStep:
        if name in self.steps:
            raise ConflictError(f"duplicate step {name!r}")
        step = WorkflowStep(name, fn, tuple(dependencies), retries, when)
        self.steps[name] = step
        return step

    def order(self) -> list[str]:
        """Step names in deterministic topological order (lexicographic tie-break).

        networkx is imported here, on first use, so that importing
        :mod:`repro.cloud` (which reaches this module) does not load it.
        """
        import networkx as nx

        g = nx.DiGraph()
        for step in self.steps.values():
            g.add_node(step.name)
        for step in self.steps.values():
            for dep in step.dependencies:
                if dep not in self.steps:
                    raise ValidationError(f"step {step.name!r} depends on unknown {dep!r}")
                g.add_edge(dep, step.name)
        if not nx.is_directed_acyclic_graph(g):
            raise ValidationError(f"workflow {self.name!r} has a cycle")
        return list(nx.lexicographical_topological_sort(g))


@dataclass
class WorkflowRun:
    workflow: str
    results: dict[str, StepResult]
    succeeded: bool

    def output(self, step: str) -> Any:
        try:
            return self.results[step].output
        except KeyError:
            raise NotFoundError(f"no step {step!r} in run") from None


class WorkflowEngine:
    """Executes workflows in deterministic topological order."""

    def __init__(self) -> None:
        self.history: list[WorkflowRun] = []

    def run(self, workflow: Workflow, params: dict[str, Any] | None = None) -> WorkflowRun:
        """Execute ``workflow``; ``params`` seed the context under ``"params"``."""
        order = workflow.order()
        results: dict[str, StepResult] = {}
        context: dict[str, Any] = {"params": dict(params or {})}

        for name in order:
            step = workflow.steps[name]
            dep_failed = any(
                results[d].status in (StepStatus.FAILED, StepStatus.SKIPPED)
                for d in step.dependencies
            )
            if dep_failed:
                results[name] = StepResult(StepStatus.SKIPPED)
                continue
            ctx = dict(context)
            ctx.update({d: results[d].output for d in step.dependencies})
            if step.when is not None and not step.when(ctx):
                results[name] = StepResult(StepStatus.SKIPPED)
                continue
            results[name] = self._execute(step, ctx)
            if results[name].status is StepStatus.SUCCEEDED:
                context[name] = results[name].output

        succeeded = all(
            r.status in (StepStatus.SUCCEEDED, StepStatus.SKIPPED) for r in results.values()
        ) and any(r.status is StepStatus.SUCCEEDED for r in results.values())
        run = WorkflowRun(workflow=workflow.name, results=results, succeeded=succeeded)
        self.history.append(run)
        return run

    @staticmethod
    def _execute(step: WorkflowStep, ctx: dict[str, Any]) -> StepResult:
        attempts = 0
        last_error = ""
        while attempts <= step.retries:
            attempts += 1
            try:
                output = step.fn(ctx)
                return StepResult(StepStatus.SUCCEEDED, output=output, attempts=attempts)
            except Exception as exc:  # noqa: BLE001 - step errors become results
                last_error = f"{type(exc).__name__}: {exc}"
        return StepResult(StepStatus.FAILED, error=last_error, attempts=attempts)
