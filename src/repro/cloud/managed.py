"""Managed cloud services (Unit 10, paper §3.10).

The final lecture demos GourmetGram "as it might be deployed on Google
Cloud Platform … a demo of platform-managed Kubernetes and serverless
functions".  This module provides the managed-service layer on top of a
simulated site, with the billing semantics that distinguish it from IaaS:

* :class:`ManagedKubernetes` — the provider runs the control plane (flat
  hourly fee) and node pools are plain metered VMs; the user never SSHes
  to a control-plane node.
* :class:`ServerlessPlatform` — deploy functions, invoke them; billing is
  per-invocation + GB-seconds with scale-to-zero (no idle cost), the
  contrast to an always-on VM the demo highlights.
* :class:`ManagedNotebook` — a GPU notebook session billed hourly while
  running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConflictError, InvalidStateError, NotFoundError, ValidationError
from repro.cloud.site import Site
from repro.orchestration.kubernetes import Cluster, KubeNode


@dataclass(frozen=True)
class ManagedPricing:
    """GCP-like managed-service rates."""

    control_plane_hourly_usd: float = 0.10  # GKE management fee
    invocation_per_million_usd: float = 0.40
    gb_second_usd: float = 0.0000025
    notebook_gpu_hourly_usd: float = 1.46  # an A30/T4-class notebook


class ManagedKubernetes:
    """Platform-managed Kubernetes: control plane + VM node pools."""

    def __init__(self, site: Site, project: str, *, pricing: ManagedPricing | None = None) -> None:
        self.site = site
        self.project = project
        self.pricing = pricing if pricing is not None else ManagedPricing()
        self._clusters: dict[str, tuple[Cluster, list[str], float]] = {}  # name -> (cluster, vm ids, created)

    def create_cluster(self, name: str, *, nodes: int = 3, flavor: str = "m1.medium") -> Cluster:
        """One call brings up control plane + node pool (no Kubespray)."""
        if name in self._clusters:
            raise ConflictError(f"cluster {name!r} already exists")
        if nodes <= 0:
            raise ValidationError("need at least one node")
        cluster = Cluster(name)
        vm_ids = []
        flavor_spec = self.site.compute.flavors[flavor]
        for i in range(nodes):
            server = self.site.compute.create_server(
                self.project, f"{name}-node{i}", flavor, lab="lab10"
            )
            vm_ids.append(server.id)
            cluster.add_node(KubeNode(server.name, cpu=float(flavor_spec.vcpus),
                                      mem_gib=float(flavor_spec.ram_gib)))
        # the control plane is the provider's problem; we only meter its fee
        self.site.meter.open_span(
            f"gke-{name}", kind="managed_k8s", resource_type="control_plane",
            project=self.project, lab="lab10",
        )
        self._clusters[name] = (cluster, vm_ids, self.site.compute._clock.now)
        return cluster

    def delete_cluster(self, name: str) -> None:
        cluster, vm_ids, _ = self._get(name)
        for vm_id in vm_ids:
            if vm_id in self.site.compute.servers:
                self.site.compute.delete_server(vm_id)
        self.site.meter.close_span(f"gke-{name}")
        del self._clusters[name]

    def cluster(self, name: str) -> Cluster:
        return self._get(name)[0]

    def management_fee(self, name: str) -> float:
        """Control-plane dollars accrued so far."""
        _, _, created = self._get(name)
        hours = self.site.compute._clock.now - created
        return hours * self.pricing.control_plane_hourly_usd

    def _get(self, name: str):
        try:
            return self._clusters[name]
        except KeyError:
            raise NotFoundError(f"cluster {name!r} not found") from None


@dataclass
class _FunctionDeployment:
    name: str
    handler: Callable[[Any], Any]
    memory_gb: float
    invocations: int = 0
    gb_seconds: float = 0.0
    cold: bool = True  # scaled to zero


class ServerlessPlatform:
    """Cloud-Functions-like FaaS with scale-to-zero billing."""

    COLD_START_MS = 400.0
    WARM_START_MS = 5.0
    IDLE_SCALE_DOWN_HOURS = 0.25  # 15 minutes of no traffic -> cold

    def __init__(self, site: Site, project: str, *, pricing: ManagedPricing | None = None) -> None:
        self.site = site
        self.project = project
        self.pricing = pricing if pricing is not None else ManagedPricing()
        self._functions: dict[str, _FunctionDeployment] = {}
        self._last_invoke: dict[str, float] = {}

    def deploy(self, name: str, handler: Callable[[Any], Any], *, memory_gb: float = 0.5) -> None:
        if memory_gb <= 0:
            raise ValidationError("function memory must be positive")
        self._functions[name] = _FunctionDeployment(name, handler, memory_gb)

    def invoke(self, name: str, payload: Any, *, duration_ms: float = 50.0) -> tuple[Any, float]:
        """Invoke a function; returns (result, end-to-end latency ms)."""
        fn = self._function(name)
        now = self.site.compute._clock.now
        last = self._last_invoke.get(name)
        if last is not None and now - last > self.IDLE_SCALE_DOWN_HOURS:
            fn.cold = True  # scaled to zero while idle
        latency = (self.COLD_START_MS if fn.cold else self.WARM_START_MS) + duration_ms
        fn.cold = False
        self._last_invoke[name] = now
        fn.invocations += 1
        fn.gb_seconds += fn.memory_gb * duration_ms / 1e3
        result = fn.handler(payload)
        return result, latency

    def cost(self, name: str) -> float:
        """Pure usage billing: zero if never invoked (scale-to-zero)."""
        fn = self._function(name)
        return (
            fn.invocations / 1e6 * self.pricing.invocation_per_million_usd
            + fn.gb_seconds * self.pricing.gb_second_usd
        )

    def stats(self, name: str) -> dict[str, float]:
        fn = self._function(name)
        return {"invocations": fn.invocations, "gb_seconds": fn.gb_seconds,
                "cost_usd": self.cost(name)}

    def _function(self, name: str) -> _FunctionDeployment:
        try:
            return self._functions[name]
        except KeyError:
            raise NotFoundError(f"function {name!r} not deployed") from None


class ManagedNotebook:
    """A GPU-accelerated managed notebook session (hourly billing)."""

    def __init__(self, site: Site, project: str, *, pricing: ManagedPricing | None = None) -> None:
        self.site = site
        self.project = project
        self.pricing = pricing if pricing is not None else ManagedPricing()
        self._sessions: dict[str, float] = {}  # name -> start time
        self._closed: dict[str, float] = {}  # name -> accumulated hours

    def start(self, name: str) -> None:
        if name in self._sessions:
            raise InvalidStateError(f"notebook {name!r} already running")
        self._sessions[name] = self.site.compute._clock.now
        self.site.meter.open_span(
            f"notebook-{name}", kind="notebook", resource_type="managed_notebook_gpu",
            project=self.project, lab="lab10",
        )

    def stop(self, name: str) -> float:
        """Stop the session; returns its billed hours."""
        start = self._sessions.pop(name, None)
        if start is None:
            raise InvalidStateError(f"notebook {name!r} is not running")
        hours = self.site.compute._clock.now - start
        self._closed[name] = self._closed.get(name, 0.0) + hours
        self.site.meter.close_span(f"notebook-{name}")
        return hours

    def cost(self, name: str) -> float:
        hours = self._closed.get(name, 0.0)
        start = self._sessions.get(name)
        if start is not None:
            hours += self.site.compute._clock.now - start
        return hours * self.pricing.notebook_gpu_hourly_usd
