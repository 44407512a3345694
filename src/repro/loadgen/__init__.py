"""Web-scale load generation and serving operations for the lab stack.

The serving chapters model one device answering one batch; this package
models the *operational* question around it: seeded open-loop traffic at
millions of requests/day (`repro.loadgen.arrivals`), an admission-
controlled queue with deadline drops feeding the shared dynamic-batching
semantics (`repro.loadgen.queue`), a replica fleet under a reactive
autoscaler with provisioning lag and exactly-once billing spans
(`repro.loadgen.autoscaler`), fault-calendar outages and error bursts
striking mid-run, and SLO-vs-cost reporting priced through the
commercial-cloud catalog (`repro.loadgen.report`).

Everything is deterministic by construction: randomness is resolved into
the request trace and fault calendar before simulation, and
``TrafficResult.digest()`` is invariant to internal evaluation order —
``python -m repro.verify loadgen`` proves it.
"""

from repro.loadgen.arrivals import (
    PATTERNS,
    SECONDS_PER_DAY,
    RequestTrace,
    TrafficConfig,
    generate_trace,
)
from repro.loadgen.autoscaler import (
    AutoscalerConfig,
    FleetTelemetry,
    Replica,
    ReplicaSet,
)
from repro.loadgen.queue import (
    DROPPED,
    ERROR,
    FAILED,
    REJECTED,
    SERVED,
    SHED,
    AdmissionConfig,
    RequestQueue,
)
from repro.loadgen.report import (
    Frontier,
    FrontierPoint,
    ServingLoadReport,
    build_report,
    pareto_front,
    slo_cost_frontier,
)
from repro.loadgen.sim import ReplicaSpan, TrafficResult, simulate_traffic
from repro.loadgen.slo import SloOutcome, SloPolicy, evaluate_slo

__all__ = [
    "PATTERNS",
    "SECONDS_PER_DAY",
    "TrafficConfig",
    "RequestTrace",
    "generate_trace",
    "AdmissionConfig",
    "RequestQueue",
    "SERVED",
    "REJECTED",
    "DROPPED",
    "ERROR",
    "FAILED",
    "SHED",
    "AutoscalerConfig",
    "Replica",
    "ReplicaSet",
    "FleetTelemetry",
    "ReplicaSpan",
    "TrafficResult",
    "simulate_traffic",
    "SloPolicy",
    "SloOutcome",
    "evaluate_slo",
    "ServingLoadReport",
    "build_report",
    "Frontier",
    "FrontierPoint",
    "pareto_front",
    "slo_cost_frontier",
]
