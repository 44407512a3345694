"""Tests for the GitOps controller and the workflow engine."""

import pytest

from repro.common import ConflictError, NotFoundError, ValidationError
from repro.orchestration.gitops import (
    Application,
    GitOpsController,
    GitRepo,
    Manifest,
    SyncStatus,
)
from repro.orchestration.kubernetes import Cluster, KubeNode
from repro.orchestration.workflow import StepStatus, Workflow, WorkflowEngine


def cluster() -> Cluster:
    c = Cluster()
    c.add_node(KubeNode("n0", cpu=8, mem_gib=16))
    return c


def gg_manifests(version: str, replicas: int = 2) -> list[Manifest]:
    return [
        Manifest("Deployment", "gg", {
            "image": f"gourmetgram:{version}", "replicas": replicas,
            "labels": {"app": "gg"},
        }),
        Manifest("Service", "gg-svc", {"selector": {"app": "gg"}, "port": 8000}),
    ]


class TestGitRepo:
    def test_commit_bumps_head(self):
        repo = GitRepo()
        assert repo.commit("envs/staging", gg_manifests("v1")) == 1
        assert repo.commit("envs/staging", gg_manifests("v2")) == 2

    def test_read_at_revision(self):
        repo = GitRepo()
        repo.commit("p", gg_manifests("v1"))
        repo.commit("p", gg_manifests("v2"))
        assert repo.read("p", revision=1)[0].spec["image"] == "gourmetgram:v1"
        assert repo.read("p")[0].spec["image"] == "gourmetgram:v2"

    def test_read_missing_path(self):
        with pytest.raises(NotFoundError):
            GitRepo().read("ghost")

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValidationError):
            Manifest("CronJob", "x", {})


class TestGitOpsController:
    def test_sync_applies_to_cluster(self):
        repo = GitRepo()
        repo.commit("envs/prod", gg_manifests("v1", replicas=3))
        ctrl = GitOpsController(repo)
        c = cluster()
        ctrl.register(Application("gg-prod", "envs/prod", c))
        ctrl.sync("gg-prod")
        assert len(c.ready_pods("gg")) == 3
        assert ctrl.status("gg-prod") is SyncStatus.SYNCED

    def test_new_commit_marks_out_of_sync(self):
        repo = GitRepo()
        repo.commit("envs/prod", gg_manifests("v1"))
        ctrl = GitOpsController(repo)
        ctrl.register(Application("gg-prod", "envs/prod", cluster()))
        ctrl.sync("gg-prod")
        repo.commit("envs/prod", gg_manifests("v2"))
        assert ctrl.status("gg-prod") is SyncStatus.OUT_OF_SYNC

    def test_commit_elsewhere_stays_synced(self):
        repo = GitRepo()
        repo.commit("envs/prod", gg_manifests("v1"))
        repo.commit("envs/staging", gg_manifests("v1"))
        ctrl = GitOpsController(repo)
        ctrl.register(Application("gg-prod", "envs/prod", cluster()))
        ctrl.sync("gg-prod")
        repo.commit("envs/staging", gg_manifests("v9"))
        assert ctrl.status("gg-prod") is SyncStatus.SYNCED

    def test_unsynced_app_status_unknown(self):
        repo = GitRepo()
        repo.commit("p", gg_manifests("v1"))
        ctrl = GitOpsController(repo)
        ctrl.register(Application("a", "p", cluster()))
        assert ctrl.status("a") is SyncStatus.UNKNOWN

    def test_auto_sync_poll(self):
        repo = GitRepo()
        repo.commit("envs/staging", gg_manifests("v1"))
        ctrl = GitOpsController(repo)
        c = cluster()
        ctrl.register(Application("gg-staging", "envs/staging", c, auto_sync=True))
        assert ctrl.poll() == ["gg-staging"]
        repo.commit("envs/staging", gg_manifests("v2"))
        assert ctrl.poll() == ["gg-staging"]
        assert ctrl.poll() == []  # converged
        images = {p.template.image for p in c.ready_pods("gg")}
        assert images == {"gourmetgram:v2"}

    def test_staging_canary_prod_environments(self):
        """The Unit 3 pattern: three apps, three paths, one cluster each."""
        repo = GitRepo()
        for env in ("staging", "canary", "production"):
            repo.commit(f"envs/{env}", gg_manifests("v1", replicas=1))
        ctrl = GitOpsController(repo)
        clusters = {env: cluster() for env in ("staging", "canary", "production")}
        for env, c in clusters.items():
            ctrl.register(Application(f"gg-{env}", f"envs/{env}", c, auto_sync=True))
        ctrl.poll()
        # promote v2 to staging only
        repo.commit("envs/staging", gg_manifests("v2", replicas=1))
        ctrl.poll()
        assert {p.template.image for p in clusters["staging"].ready_pods("gg")} == {"gourmetgram:v2"}
        assert {p.template.image for p in clusters["production"].ready_pods("gg")} == {"gourmetgram:v1"}


class TestWorkflowEngine:
    def test_linear_pipeline_passes_outputs(self):
        wf = Workflow("ml-pipeline")
        wf.add_step("extract", lambda ctx: [1, 2, 3])
        wf.add_step("train", lambda ctx: sum(ctx["extract"]), dependencies=("extract",))
        wf.add_step("register", lambda ctx: f"model-{ctx['train']}", dependencies=("train",))
        run = WorkflowEngine().run(wf)
        assert run.succeeded
        assert run.output("register") == "model-6"

    def test_params_available(self):
        wf = Workflow("p")
        wf.add_step("s", lambda ctx: ctx["params"]["lr"] * 2)
        run = WorkflowEngine().run(wf, params={"lr": 0.1})
        assert run.output("s") == pytest.approx(0.2)

    def test_failure_skips_dependents(self):
        wf = Workflow("f")
        wf.add_step("a", lambda ctx: 1)
        wf.add_step("boom", lambda ctx: 1 / 0, dependencies=("a",))
        wf.add_step("c", lambda ctx: 2, dependencies=("boom",))
        wf.add_step("d", lambda ctx: 3, dependencies=("a",))
        run = WorkflowEngine().run(wf)
        assert not run.succeeded
        assert run.results["boom"].status is StepStatus.FAILED
        assert "ZeroDivisionError" in run.results["boom"].error
        assert run.results["c"].status is StepStatus.SKIPPED
        assert run.results["d"].status is StepStatus.SUCCEEDED

    def test_retries(self):
        attempts = {"n": 0}

        def flaky(ctx):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        wf = Workflow("r")
        wf.add_step("flaky", flaky, retries=3)
        run = WorkflowEngine().run(wf)
        assert run.succeeded
        assert run.results["flaky"].attempts == 3

    def test_retries_exhausted(self):
        wf = Workflow("r")
        wf.add_step("always", lambda ctx: 1 / 0, retries=2)
        run = WorkflowEngine().run(wf)
        assert run.results["always"].status is StepStatus.FAILED
        assert run.results["always"].attempts == 3

    def test_when_guard_skips_step(self):
        """The model-promotion gate: only promote if eval passed."""
        wf = Workflow("promo")
        wf.add_step("evaluate", lambda ctx: {"accuracy": 0.4})
        wf.add_step(
            "promote",
            lambda ctx: "promoted",
            dependencies=("evaluate",),
            when=lambda ctx: ctx["evaluate"]["accuracy"] >= 0.8,
        )
        run = WorkflowEngine().run(wf)
        assert run.results["promote"].status is StepStatus.SKIPPED
        assert run.succeeded  # a skip by guard is not a failure

    def test_cycle_rejected(self):
        wf = Workflow("c")
        wf.add_step("a", lambda ctx: 1, dependencies=("b",))
        wf.add_step("b", lambda ctx: 1, dependencies=("a",))
        with pytest.raises(ValidationError, match="has a cycle"):
            WorkflowEngine().run(wf)

    def test_unknown_dependency_rejected(self):
        wf = Workflow("u")
        wf.add_step("a", lambda ctx: 1, dependencies=("ghost",))
        with pytest.raises(ValidationError, match="depends on unknown"):
            WorkflowEngine().run(wf)

    def test_duplicate_step_rejected(self):
        wf = Workflow("d")
        wf.add_step("a", lambda ctx: 1)
        with pytest.raises(ConflictError):
            wf.add_step("a", lambda ctx: 2)

    def test_history_recorded(self):
        engine = WorkflowEngine()
        wf = Workflow("h")
        wf.add_step("s", lambda ctx: 1)
        engine.run(wf)
        engine.run(wf)
        assert len(engine.history) == 2
