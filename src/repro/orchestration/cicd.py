"""Continuous integration / continuous delivery.

Unit 3 reviews "continuous integration and delivery (CI/CD), version
control, and infrastructure as code" (paper §3.3), and CI/CD is the fourth
project role in four-person groups (§3.11).  This module is the pipeline a
GourmetGram group would run:

    commit -> build image -> run test stages -> push to registry
           -> bump the GitOps manifests (which Argo-style auto-sync deploys)

* :class:`CodeRepo` — a toy VCS: commits with content hashes and messages.
* :class:`CiPipeline` — ordered stages over a commit's workspace; a failing
  stage stops the run (and nothing is pushed or deployed).
* :class:`CdPromoter` — on a green build, pushes the image and commits
  updated manifests to the GitOps repo for the target environments.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import NotFoundError, ValidationError
from repro.orchestration.containers import ContainerImage, Registry
from repro.orchestration.gitops import GitRepo, Manifest


@dataclass(frozen=True)
class Commit:
    sha: str
    message: str
    workspace: dict[str, str]  # path -> contents


class CodeRepo:
    """A minimal VCS: linear history of content-addressed commits."""

    def __init__(self) -> None:
        self._history: list[Commit] = []

    def commit(self, workspace: dict[str, str], message: str) -> Commit:
        if not workspace:
            raise ValidationError("cannot commit an empty workspace")
        digest = hashlib.sha256(
            "".join(f"{k}\0{v}\0" for k, v in sorted(workspace.items())).encode()
        ).hexdigest()[:12]
        commit = Commit(sha=digest, message=message, workspace=dict(workspace))
        self._history.append(commit)
        return commit

    def head(self) -> Commit:
        if not self._history:
            raise NotFoundError("repository has no commits")
        return self._history[-1]

    def log(self) -> list[Commit]:
        return list(self._history)


@dataclass(frozen=True)
class StageResult:
    stage: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class BuildResult:
    commit: Commit
    image: ContainerImage | None
    stages: tuple[StageResult, ...]

    @property
    def green(self) -> bool:
        return all(s.passed for s in self.stages) and self.image is not None

    def failed_stage(self) -> str | None:
        for s in self.stages:
            if not s.passed:
                return s.stage
        return None


class CiPipeline:
    """Build + test stages over a commit; green builds produce an image.

    Stage callables receive the commit's workspace and return ``(ok,
    detail)``.  Stages run in order and stop at the first failure — the
    fail-fast behaviour that keeps broken images out of the registry.
    """

    def __init__(self, image_name: str, *, stages: list[tuple[str, Callable[[dict[str, str]], tuple[bool, str]]]] | None = None) -> None:
        if not image_name:
            raise ValidationError("image name required")
        self.image_name = image_name
        self.stages = list(stages or [])
        self.history: list[BuildResult] = []

    def add_stage(self, name: str, fn: Callable[[dict[str, str]], tuple[bool, str]]) -> "CiPipeline":
        self.stages.append((name, fn))
        return self

    def run(self, commit: Commit) -> BuildResult:
        results: list[StageResult] = []
        for name, fn in self.stages:
            try:
                ok, detail = fn(commit.workspace)
            except Exception as exc:  # noqa: BLE001 - stage crash = stage failure
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            results.append(StageResult(name, ok, detail))
            if not ok:
                build = BuildResult(commit, None, tuple(results))
                self.history.append(build)
                return build
        image = ContainerImage(
            self.image_name,
            tag=commit.sha,
            labels=(("commit", commit.sha), ("message", commit.message)),
        )
        build = BuildResult(commit, image, tuple(results))
        self.history.append(build)
        return build


class CdPromoter:
    """Continuous delivery: green build -> registry -> GitOps manifests."""

    def __init__(
        self,
        registry: Registry,
        gitops_repo: GitRepo,
        *,
        environments: dict[str, dict[str, Any]] | None = None,
    ) -> None:
        """``environments`` maps GitOps path -> deployment overrides, e.g.
        ``{"envs/staging": {"replicas": 1}, "envs/prod": {"replicas": 3}}``."""
        self.registry = registry
        self.gitops_repo = gitops_repo
        self.environments = dict(environments or {"envs/staging": {"replicas": 1}})
        self.deployed: list[tuple[str, str]] = []  # (env path, image ref)

    def promote(self, build: BuildResult, *, app_name: str = "food-classifier",
                only: list[str] | None = None) -> list[str]:
        """Push the image and bump manifests; returns the updated paths.

        Red builds are refused — the CD half never ships what CI rejected.
        """
        if not build.green:
            raise ValidationError(
                f"refusing to promote red build of {build.commit.sha} "
                f"(failed stage: {build.failed_stage()!r})"
            )
        ref = self.registry.push(build.image)
        updated = []
        for path, overrides in self.environments.items():
            if only is not None and path not in only:
                continue
            spec = {"image": ref, "labels": {"app": app_name}}
            spec.update(overrides)
            manifests = [
                Manifest("Deployment", app_name, spec),
                Manifest("Service", f"{app_name}-svc",
                         {"selector": {"app": app_name}, "port": 8000}),
            ]
            self.gitops_repo.commit(path, manifests)
            self.deployed.append((path, ref))
            updated.append(path)
        return updated
