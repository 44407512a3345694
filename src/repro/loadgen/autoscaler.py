"""The replica fleet: provisioning lag, one terminal path, reactive scaling.

A replica is one model instance on one device (the serving lab's
instance-group unit).  The fleet tracks each replica's billing span from
launch to termination, and — like the cloud substrate's metering — closes
every span **exactly once** through a single terminal path:
scale-down, outage strike, and end-of-run drain all go through
:meth:`ReplicaSet.terminate`, and a second close raises instead of
silently double-billing.

The autoscaler is deliberately the simple reactive controller every
serving stack starts with: at fixed control ticks it compares queue
depth against a per-replica target and scales up (paying a provisioning
lag before the new replica takes traffic), and scales down one idle
replica at a time after a sustained idle streak.  Its whole state is a
pure function of the tick observations, so scaling decisions replay
identically for a given trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import InvalidStateError, ValidationError


@dataclass(frozen=True)
class AutoscalerConfig:
    """Reactive scaling policy."""

    min_replicas: int = 1
    max_replicas: int = 8
    control_interval_s: float = 15.0
    provisioning_lag_s: float = 60.0
    #: Scale up when queue depth exceeds this many waiters per live replica.
    target_queue_per_replica: float = 32.0
    #: Consecutive idle control ticks before one replica is retired.
    scale_down_idle_ticks: int = 4

    def __post_init__(self) -> None:
        if self.min_replicas <= 0 or self.max_replicas < self.min_replicas:
            raise ValidationError(f"invalid replica bounds: {self!r}")
        if not (0 < self.control_interval_s < math.inf and 0 <= self.provisioning_lag_s < math.inf):
            raise ValidationError(f"invalid timing: {self!r}")
        if self.target_queue_per_replica <= 0 or self.scale_down_idle_ticks <= 0:
            raise ValidationError(f"invalid scaling thresholds: {self!r}")


@dataclass
class Replica:
    """One replica's lifecycle.  Billing runs [launched_at, terminated_at)."""

    rid: int
    launched_at: float
    ready_at: float
    free_at: float
    terminated_at: float | None = None
    reason: str | None = None
    #: Request indices of the batch currently in service (empty when idle).
    inflight: tuple[int, ...] = ()

    @property
    def live(self) -> bool:
        return self.terminated_at is None


@dataclass
class FleetTelemetry:
    """Counters the report and the tests read."""

    ticks: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    outage_kills: int = 0
    peak_replicas: int = 0


class ReplicaSet:
    """The fleet, its billing ledger, and the autoscaler's actuators."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self.replicas: list[Replica] = []
        # the live replicas, in rid order: only _launch adds to it and only
        # terminate removes from it, so no view rescans the whole ledger
        self._live: list[Replica] = []
        self.telemetry = FleetTelemetry()
        self._idle_ticks = 0
        # the initial fleet is ready at t=0: the operator provisioned it
        # before opening the front door, so cold-start lag applies only to
        # scale-up decisions made during the run
        for _ in range(config.min_replicas):
            self._launch(0.0, ready_at=0.0)

    # -- fleet views --------------------------------------------------------

    def live(self) -> list[Replica]:
        return list(self._live)

    @property
    def open_spans(self) -> int:
        return len(self._live)

    def next_available(self, now_s: float, *, perturb: bool = False) -> tuple[float, int] | None:
        """Earliest instant any live replica can start a batch, with its id.

        Selection is by ``(available_time, rid)``, so the scan order is
        irrelevant — ``perturb=True`` proves it by scanning the fleet in
        reverse, the loadgen analogue of `repro.parallel`'s
        evaluation-order equivalence.  Returns None when the fleet is
        empty (mid-outage, pre-provisioning).
        """
        best: tuple[float, int] | None = None
        for r in reversed(self._live) if perturb else self._live:
            avail = (max(r.free_at, r.ready_at, now_s), r.rid)
            if best is None or avail < best:
                best = avail
        return best

    # -- lifecycle (the one terminal path) ----------------------------------

    def _launch(self, now_s: float, *, ready_at: float) -> Replica:
        replica = Replica(
            rid=len(self.replicas),
            launched_at=now_s,
            ready_at=ready_at,
            free_at=ready_at,
        )
        self.replicas.append(replica)
        self._live.append(replica)
        self.telemetry.peak_replicas = max(self.telemetry.peak_replicas, len(self._live))
        return replica

    def terminate(self, rid: int, now_s: float, reason: str) -> tuple[int, ...]:
        """Close one replica's span — the only way a span ever closes.

        Returns the request indices that were in flight (the caller books
        them as failed); a second termination of the same replica raises.
        """
        replica = self.replicas[rid]
        if not replica.live:
            raise InvalidStateError(
                f"replica {rid} already terminated at {replica.terminated_at} "
                f"({replica.reason}); spans close exactly once"
            )
        replica.terminated_at = max(now_s, replica.launched_at)
        replica.reason = reason
        self._live.remove(replica)
        lost = replica.inflight if replica.free_at > now_s else ()
        replica.inflight = ()
        return lost

    def dispatch(self, rid: int, batch: tuple[int, ...], busy_until_s: float) -> None:
        replica = self.replicas[rid]
        replica.free_at = busy_until_s
        replica.inflight = batch

    # -- fault actuation ----------------------------------------------------

    def strike(self, now_s: float, *, limit: int | None = None) -> list[int]:
        """An outage hits the serving site: live replicas are killed
        through the terminal path.  ``limit=None`` is the full-site
        strike; a partial outage kills at most ``limit`` replicas, in
        ascending rid order (the oldest instances — a zone holds the
        replicas that were placed there, not a random sample), so the
        casualty set is deterministic.  Returns the request indices lost
        in flight, in (rid) order."""
        lost: list[int] = []
        killed = 0
        for r in list(self._live):
            if limit is not None and killed >= limit:
                break
            lost.extend(self.terminate(r.rid, now_s, "outage"))
            self.telemetry.outage_kills += 1
            killed += 1
        self._idle_ticks = 0
        return lost

    # -- the reactive controller --------------------------------------------

    def tick(
        self,
        now_s: float,
        queue_depth: int,
        *,
        not_ready_before_s: float = 0.0,
        dark_replicas: int = 0,
    ) -> None:
        """One control interval: observe, then scale.

        ``not_ready_before_s`` pushes new replicas' readiness past an
        ongoing outage window — capacity cannot materialize on a down
        site.  ``dark_replicas`` shrinks the ceiling during a *partial*
        outage: the dark fraction of the fleet's placement cannot host
        replacements, so the controller can scale at most to
        ``max_replicas - dark_replicas`` until the window clears.
        """
        cfg = self.config
        self.telemetry.ticks += 1
        alive = len(self._live)

        # scale up: enough capacity that the current backlog meets target
        desired = max(
            cfg.min_replicas,
            math.ceil(queue_depth / cfg.target_queue_per_replica) if queue_depth else 0,
        )
        desired = min(desired, max(cfg.max_replicas - max(dark_replicas, 0), 0))
        if desired > alive:
            ready = max(now_s + cfg.provisioning_lag_s, not_ready_before_s)
            for _ in range(desired - alive):
                self._launch(now_s, ready_at=ready)
            self.telemetry.scale_ups += desired - alive
            self._idle_ticks = 0
            return

        # scale down: sustained empty queue retires one idle replica per tick
        if queue_depth == 0:
            self._idle_ticks += 1
            if self._idle_ticks >= cfg.scale_down_idle_ticks and alive > cfg.min_replicas:
                idle = [r for r in self._live if r.free_at <= now_s and r.ready_at <= now_s]
                if idle:
                    victim = max(idle, key=lambda r: r.rid)
                    self.terminate(victim.rid, now_s, "scale_down")
                    self.telemetry.scale_downs += 1
        else:
            self._idle_ticks = 0

    # -- end of run ---------------------------------------------------------

    def drain(self, now_s: float) -> None:
        """Terminate every surviving replica once its last batch finishes."""
        for r in list(self._live):
            self.terminate(r.rid, max(now_s, r.free_at), "drain")
