"""Argo-CD-like GitOps: declarative application sync from a git repo.

Unit 3 (paper §3.3) has students "use Argo CD to declaratively manage the
deployment of GourmetGram's platform components, and to deploy
GourmetGram's staging, canary, and production services".  The model here:

* a :class:`GitRepo` stores versioned manifests (deployment/service specs
  keyed by path),
* an :class:`Application` binds a repo path to a target cluster,
* the :class:`GitOpsController` computes sync status (``Synced`` when the
  cluster's desired state matches the repo revision the app points at) and
  applies manifests on sync — automatically when ``auto_sync`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.common.errors import NotFoundError, ValidationError
from repro.orchestration.kubernetes import Cluster, Deployment, PodTemplate, Service


class SyncStatus(str, Enum):
    SYNCED = "Synced"
    OUT_OF_SYNC = "OutOfSync"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Manifest:
    """One declarative object: a deployment or a service."""

    kind: str  # "Deployment" | "Service"
    name: str
    spec: dict[str, Any]

    def __post_init__(self) -> None:
        if self.kind not in ("Deployment", "Service"):
            raise ValidationError(f"unsupported manifest kind {self.kind!r}")


class GitRepo:
    """A versioned store of manifests.  Each commit bumps the revision."""

    def __init__(self) -> None:
        self._files: dict[str, list[tuple[int, list[Manifest]]]] = {}
        self.head = 0

    def commit(self, path: str, manifests: list[Manifest]) -> int:
        """Write ``manifests`` at ``path``; returns the new head revision."""
        self.head += 1
        self._files.setdefault(path, []).append((self.head, list(manifests)))
        return self.head

    def read(self, path: str, revision: int | None = None) -> list[Manifest]:
        """Manifests at ``path`` as of ``revision`` (default: head)."""
        history = self._files.get(path)
        if not history:
            raise NotFoundError(f"no manifests at {path!r}")
        revision = self.head if revision is None else revision
        result: list[Manifest] | None = None
        for rev, manifests in history:
            if rev <= revision:
                result = manifests
        if result is None:
            raise NotFoundError(f"path {path!r} does not exist at revision {revision}")
        return list(result)

    def paths(self) -> list[str]:
        return sorted(self._files)


@dataclass
class Application:
    """An Argo application: repo path -> target cluster."""

    name: str
    path: str
    cluster: Cluster
    auto_sync: bool = False
    synced_revision: int | None = None


class GitOpsController:
    """Reconciles applications against their repo."""

    def __init__(self, repo: GitRepo) -> None:
        self.repo = repo
        self.applications: dict[str, Application] = {}

    def register(self, app: Application) -> Application:
        self.applications[app.name] = app
        return app

    def status(self, app_name: str) -> SyncStatus:
        app = self._app(app_name)
        if app.synced_revision is None:
            return SyncStatus.UNKNOWN
        try:
            desired = self.repo.read(app.path)
        except NotFoundError:
            return SyncStatus.UNKNOWN
        synced = self.repo.read(app.path, app.synced_revision)
        return SyncStatus.SYNCED if desired == synced else SyncStatus.OUT_OF_SYNC

    def sync(self, app_name: str) -> int:
        """Apply the head revision's manifests to the app's cluster."""
        app = self._app(app_name)
        manifests = self.repo.read(app.path)
        for m in manifests:
            self._apply(app.cluster, m)
        app.cluster.reconcile_to_convergence()
        app.synced_revision = self.repo.head
        return app.synced_revision

    def poll(self) -> list[str]:
        """One controller tick: sync every out-of-sync auto-sync app.

        Returns the names of applications that were synced.
        """
        synced = []
        for app in self.applications.values():
            if app.auto_sync and self.status(app.name) is not SyncStatus.SYNCED:
                self.sync(app.name)
                synced.append(app.name)
        return synced

    # -- manifest -> cluster ---------------------------------------------------

    @staticmethod
    def _apply(cluster: Cluster, manifest: Manifest) -> None:
        spec = manifest.spec
        if manifest.kind == "Deployment":
            template = PodTemplate(
                image=spec["image"],
                cpu_request=spec.get("cpu_request", 0.5),
                mem_request_gib=spec.get("mem_request_gib", 0.5),
                labels=tuple(sorted(spec.get("labels", {}).items())),
            )
            cluster.apply_deployment(
                Deployment(
                    name=manifest.name,
                    template=template,
                    replicas=spec.get("replicas", 1),
                    max_surge=spec.get("max_surge", 1),
                    max_unavailable=spec.get("max_unavailable", 0),
                )
            )
        else:  # Service
            cluster.apply_service(
                Service(
                    name=manifest.name,
                    selector=dict(spec.get("selector", {})),
                    port=spec.get("port", 80),
                )
            )

    def _app(self, name: str) -> Application:
        try:
            return self.applications[name]
        except KeyError:
            raise NotFoundError(f"application {name!r} not found") from None
