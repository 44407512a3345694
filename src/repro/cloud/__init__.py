"""An OpenStack-like research-cloud testbed simulator.

This package simulates the slice of Chameleon Cloud the course depends on
(paper §4): a KVM site offering on-demand VM instances, bare-metal sites
whose GPU nodes are obtained through Blazar-style advance reservations with
automatic termination, and an edge site (CHI@Edge) of Raspberry Pi / Jetson
class devices.  It models:

* **Compute** — flavors, VM server lifecycle, bare-metal node provisioning
  gated on an active lease, edge device sessions.
* **Network** — private networks/subnets, routers, floating IPs, security
  groups, with per-project quotas.
* **Storage** — block volumes (attach/detach/snapshot) and an S3-like
  object store.
* **Reservations** — leases on bare-metal/edge resources with conflict
  detection and auto-termination at lease end (the mechanism behind the
  paper's Fig 1(b) observation that reserved usage tracks expectations).
* **Metering** — every resource emits usage spans; the paper's §5 analysis
  is computed from these records.

The public entry point is :func:`repro.cloud.testbed.chameleon`, which
assembles a testbed shaped like the one in the paper.

The CLI and the managed services bind on first use (PEP 562): the
managed services load all of :mod:`repro.orchestration`, which no cohort
engine runs (DESIGN §15).
"""

import importlib
from typing import TYPE_CHECKING

from repro.cloud.inventory import (
    CHAMELEON_FLAVORS,
    CHAMELEON_NODE_TYPES,
    EDGE_DEVICE_TYPES,
    EdgeDeviceType,
    Flavor,
    Image,
    NodeType,
)
from repro.cloud.leases import Lease, LeaseManager, LeaseStatus
from repro.cloud.metering import UsageMeter, UsageRecord
from repro.cloud.quota import Quota, QuotaManager
from repro.cloud.site import Site, SiteKind
from repro.cloud.testbed import Testbed, chameleon

if TYPE_CHECKING:  # bound on first use by __getattr__ below
    from repro.cloud.cli import OpenStackCli
    from repro.cloud.managed import ManagedKubernetes, ManagedNotebook, ServerlessPlatform

__all__ = [
    "Flavor",
    "NodeType",
    "EdgeDeviceType",
    "Image",
    "CHAMELEON_FLAVORS",
    "CHAMELEON_NODE_TYPES",
    "EDGE_DEVICE_TYPES",
    "Quota",
    "QuotaManager",
    "Lease",
    "LeaseManager",
    "LeaseStatus",
    "UsageMeter",
    "UsageRecord",
    "Site",
    "SiteKind",
    "Testbed",
    "chameleon",
    "OpenStackCli",
    "ManagedKubernetes",
    "ServerlessPlatform",
    "ManagedNotebook",
]


def __getattr__(name: str) -> object:
    if name in __all__:
        for module in ("repro.cloud.cli", "repro.cloud.managed"):
            namespace = vars(importlib.import_module(module))
            if name in namespace:
                globals()[name] = namespace[name]
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
