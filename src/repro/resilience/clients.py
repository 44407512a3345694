"""The closed-loop client layer: retries planned, budgeted, and replayed.

`repro.loadgen` is open-loop by construction: a failed request vanishes.
Real clients re-issue failures, which is how outages turn into retry
storms — load is highest exactly when capacity is lowest.  This module
closes the loop without breaking the determinism contract:

* **Plan time** (:func:`plan_resilience`): every random draw a client
  could ever need — per-retry jitter for each request, the priority-tier
  assignment — is resolved here from spawned ``SeedSequence`` streams
  into arrays on the :class:`ResilienceModel`.  The streams root at
  the client config's ``seed``, never at a literal (SEED001).
* **Simulation time** (:class:`ClosedLoopRuntime`): the loadgen loop
  drives the runtime through pure hooks — count an attempt, ask the
  front door, book an outcome, maybe get a retry instant back.  No RNG,
  no wall clock, no module state: ``simulate_traffic`` remains a PUR001
  entry point with the runtime inside its purity boundary.

Client-side defense is the **retry budget**: a token bucket earning
``fill_per_request`` tokens per fresh request and spending one per
retry.  With fill ratio f, closed-loop amplification is capped at
~``1 + f`` no matter how the server misbehaves — the difference between
a retry policy and a self-inflicted DDoS.  Server-side defenses (the
circuit breaker, tiered shedding, brownout) plug in through the same
runtime; see :mod:`repro.resilience.breaker` and
:mod:`repro.resilience.shedding`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.common.breaker import BreakerConfig
from repro.common.errors import ValidationError
from repro.common.retry import RetryPolicy
from repro.loadgen.arrivals import RequestTrace
from repro.loadgen.queue import DROPPED, ERROR, FAILED, REJECTED, SERVED, SHED
from repro.resilience.breaker import FrontDoor
from repro.resilience.shedding import CongestionConfig, SheddingConfig, assign_tiers

#: Outcomes a client can observe as a failed call and may re-issue:
#: fast rejections (429/503 and breaker/tier sheds), burst errors,
#: deadline timeouts, and connections cut mid-flight.  ``SERVED`` is the
#: only terminal a closed-loop client never retries.
RETRYABLE = (REJECTED, ERROR, SHED, DROPPED, FAILED)


@dataclass(frozen=True)
class RetryBudgetConfig:
    """The client fleet's token bucket over retries.

    Each *first* attempt earns ``fill_per_request`` tokens (capped at
    ``capacity``); each retry costs one token and is suppressed when the
    bucket is empty.  ``initial`` sets the starting balance (None =
    start full).
    """

    capacity: float = 100.0
    fill_per_request: float = 0.1
    initial: float | None = None

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValidationError(f"budget capacity must be positive: {self.capacity!r}")
        if self.fill_per_request < 0:
            raise ValidationError(
                f"fill_per_request cannot be negative: {self.fill_per_request!r}"
            )
        if self.initial is not None and not (0.0 <= self.initial <= self.capacity):
            raise ValidationError(
                f"initial balance must be in [0, capacity]: {self.initial!r}"
            )


@dataclass(frozen=True)
class ClientConfig:
    """One client population's closed-loop behaviour.

    ``retry`` is the shared :class:`~repro.common.retry.RetryPolicy`
    (seconds read via ``backoff_seconds``); ``retry_on`` the observable
    outcomes it re-issues; ``budget`` the amplification cap (None =
    unbudgeted, the naive client).  ``give_up_deadline_s`` makes the
    client *adaptive*: before scheduling a retry it computes the retry's
    own (plan-indexed) backoff and gives up when the re-offer instant
    would already sit past the deadline measured from first arrival —
    a retry that cannot possibly be answered in time is load with no
    possible value, so it is never offered and never spends a budget
    token.  ``seed`` roots the jitter/tier streams — independent of the
    traffic seed, so enabling retries never perturbs the arrival process
    itself.
    """

    seed: int = 0
    retry: RetryPolicy = RetryPolicy.client_default()
    retry_on: tuple[int, ...] = RETRYABLE
    budget: RetryBudgetConfig | None = None
    give_up_deadline_s: float | None = None

    def __post_init__(self) -> None:
        known = set(RETRYABLE)
        if any(code not in known for code in self.retry_on):
            raise ValidationError(
                f"retry_on must be drawn from the retryable terminals {RETRYABLE}: "
                f"{self.retry_on!r}"
            )
        if self.give_up_deadline_s is not None and self.give_up_deadline_s <= 0:
            raise ValidationError(
                f"give_up_deadline_s must be positive: {self.give_up_deadline_s!r}"
            )

    @classmethod
    def no_retry(cls, seed: int = 0) -> "ClientConfig":
        """The open-loop client in closed-loop clothing: one attempt ever."""
        return cls(seed=seed, retry=RetryPolicy(max_attempts=1), retry_on=())

    @classmethod
    def naive(cls, seed: int = 0) -> "ClientConfig":
        """Fast unbudgeted retries on every failure — the storm author."""
        return cls(seed=seed, retry=RetryPolicy.storm_default(), budget=None)

    @classmethod
    def budgeted(
        cls, seed: int = 0, *, fill_per_request: float = 0.1
    ) -> "ClientConfig":
        """Jittered exponential backoff under a token-bucket budget."""
        return cls(
            seed=seed,
            retry=RetryPolicy.client_default(),
            budget=RetryBudgetConfig(fill_per_request=fill_per_request),
        )

    @classmethod
    def adaptive(
        cls,
        seed: int = 0,
        *,
        fill_per_request: float = 0.1,
        give_up_deadline_s: float = 10.0,
    ) -> "ClientConfig":
        """The budgeted client plus deadline-aware give-up: a retry whose
        backoff lands past ``give_up_deadline_s`` after first arrival is
        declined *before* it spends a token — during an outage the bucket
        drains slower, so recovery finds both less queued work and more
        budget headroom."""
        return cls(
            seed=seed,
            retry=RetryPolicy.client_default(),
            budget=RetryBudgetConfig(fill_per_request=fill_per_request),
            give_up_deadline_s=give_up_deadline_s,
        )

    @classmethod
    def hedged(
        cls,
        seed: int = 0,
        *,
        fill_per_request: float = 0.1,
        give_up_deadline_s: float = 10.0,
    ) -> "ClientConfig":
        """Hedged requests under the same token bucket: the first
        re-offer is a near-immediate backup request
        (:meth:`RetryPolicy.hedge_default`), so a transient blip costs
        ~50 ms of tail instead of a full backoff — and because every
        hedge still buys its token, amplification ≤ 1 + fill remains a
        theorem, not a hope."""
        return cls(
            seed=seed,
            retry=RetryPolicy.hedge_default(),
            budget=RetryBudgetConfig(fill_per_request=fill_per_request),
            give_up_deadline_s=give_up_deadline_s,
        )


@dataclass(frozen=True)
class ResilienceModel:
    """One run's fully resolved resilience policy: configs + plan arrays.

    ``jitter_u[i, k]`` is the uniform draw retry ``k + 1`` of request
    ``i`` will use; ``tier[i]`` its priority tier.  Both are fixed at
    plan time, so the simulation replays byte-identically.
    """

    client: ClientConfig
    shedding: SheddingConfig | None
    breaker: BreakerConfig | None
    congestion: CongestionConfig | None
    jitter_u: np.ndarray
    tier: np.ndarray

    def runtime(
        self, arrivals_s: np.ndarray, queue_capacity: int
    ) -> "ClosedLoopRuntime":
        """A fresh mutable state machine for one simulation run."""
        return ClosedLoopRuntime(self, arrivals_s, queue_capacity)

    def config_repr(self) -> str:
        """The resolved policy tuple as a stable string (digest ingredient)."""
        return repr((self.client, self.shedding, self.breaker, self.congestion))


def plan_resilience(
    trace: RequestTrace,
    client: ClientConfig,
    *,
    shedding: SheddingConfig | None = None,
    breaker: BreakerConfig | None = None,
    congestion: CongestionConfig | None = None,
) -> ResilienceModel:
    """Resolve a client/server resilience policy against one trace.

    Two independent streams spawn from the client seed — (retry jitter,
    tier assignment) — so toggling shedding never perturbs the jitter a
    given retry draws, mirroring the stream discipline of
    :func:`repro.loadgen.arrivals.generate_trace`.
    """
    n = len(trace)
    jitter_ss, tier_ss = np.random.SeedSequence(client.seed).spawn(2)
    retries = client.retry.max_retries
    if retries:
        jitter_u = np.random.default_rng(jitter_ss).random((n, retries))
    else:
        jitter_u = np.zeros((n, 0))
    if shedding is not None:
        tier = assign_tiers(
            np.random.default_rng(tier_ss).random(n), shedding.tier_shares
        )
    else:
        tier = np.zeros(n, dtype=np.int8)
    return ResilienceModel(
        client=client,
        shedding=shedding,
        breaker=breaker,
        congestion=congestion,
        jitter_u=jitter_u,
        tier=tier,
    )


@dataclass(frozen=True)
class ResilienceOutcome:
    """What the closed loop did to one run (rides on ``TrafficResult``).

    ``attempts[i]`` counts every attempt request ``i`` made (>= 1);
    ``brownout[i]`` marks requests served degraded; ``depth_samples`` is
    the (tick_s, queue_depth, live_replicas) series the storm scenario
    reads time-to-recovery from.
    """

    policy_repr: str
    attempts: np.ndarray
    brownout: np.ndarray
    depth_samples: np.ndarray
    retries: int
    retries_denied_budget: int
    retries_declined_deadline: int
    retries_exhausted: int
    shed_breaker: int
    shed_tier: int
    breaker_state: str
    breaker_opens: int
    breaker_closes: int
    tokens_left: float

    @property
    def attempts_total(self) -> int:
        return int(self.attempts.sum())

    @property
    def amplification(self) -> float:
        """Mean attempts per offered request (1.0 = perfectly open-loop)."""
        n = len(self.attempts)
        return self.attempts_total / n if n else 1.0

    @property
    def brownout_served(self) -> int:
        return int(self.brownout.sum())

    def digest_update(self, h) -> None:
        """Fold the closed-loop observables into a result digest."""
        h.update(self.policy_repr.encode())
        h.update(self.attempts.tobytes())
        h.update(self.brownout.tobytes())
        h.update(self.depth_samples.tobytes())
        h.update(
            repr(
                (
                    self.retries,
                    self.retries_denied_budget,
                    self.retries_declined_deadline,
                    self.retries_exhausted,
                    self.shed_breaker,
                    self.shed_tier,
                    self.breaker_state,
                    self.breaker_opens,
                    self.breaker_closes,
                    self.tokens_left,
                )
            ).encode()
        )


class ClosedLoopRuntime:
    """The per-run state machine `simulate_traffic` drives.

    Every method is a pure function of its arguments and accumulated
    instance state — the runtime sits inside the simulation's PUR001
    purity boundary, so it must never construct a Generator, read a
    clock, or touch module globals.
    """

    def __init__(
        self, model: ResilienceModel, arrivals_s: np.ndarray, queue_capacity: int
    ) -> None:
        n = len(arrivals_s)
        self.model = model
        # per-request reads and state go through compact typed buffers
        # (DESIGN §9); finish() turns the state into numpy arrays
        self._arrivals = array(
            "d", np.ascontiguousarray(arrivals_s, dtype=np.float64).tobytes()
        )
        self._tier = array("b", np.ascontiguousarray(model.tier, dtype=np.int8).tobytes())
        self._retry_on = frozenset(int(code) for code in model.client.retry_on)
        self._policy = model.client.retry
        self._budget = model.client.budget
        if self._budget is not None:
            self._tokens = (
                self._budget.initial
                if self._budget.initial is not None
                else self._budget.capacity
            )
        else:
            self._tokens = 0.0
        self._door = FrontDoor(model.breaker) if model.breaker is not None else None
        shed = model.shedding
        self._tier_limits = shed.depth_limits(queue_capacity) if shed is not None else None
        self._brownout_depth = (
            shed.brownout_depth(queue_capacity)
            if shed is not None and shed.brownout_speedup < 1.0
            else None
        )
        self._brownout_speedup = shed.brownout_speedup if shed is not None else 1.0
        congestion = model.congestion
        self._thrash_depth = (
            congestion.thrash_depth(queue_capacity) if congestion is not None else None
        )
        self._thrash_slowdown = congestion.slowdown if congestion is not None else 1.0
        self.attempts = array("h", [0]) * n
        self.brownout = bytearray(n)
        self._depth_samples: list[tuple[float, float, float]] = []
        self.retries = 0
        self.retries_denied_budget = 0
        self.retries_declined_deadline = 0
        self.retries_exhausted = 0
        self.shed_breaker = 0
        self.shed_tier = 0

    # -- front door ----------------------------------------------------------

    def begin_attempt(self, idx: int) -> None:
        """Count one attempt; first attempts earn budget tokens."""
        attempts = self.attempts[idx] + 1
        self.attempts[idx] = attempts
        if attempts == 1 and self._budget is not None:
            self._tokens = min(
                self._budget.capacity, self._tokens + self._budget.fill_per_request
            )

    def admit(self, idx: int, now_s: float, depth: int) -> bool:
        """Breaker, then tier shedding.  False = book the attempt SHED."""
        if self._door is not None and not self._door.admit(now_s):
            self.shed_breaker += 1
            return False
        if self._tier_limits is not None:
            if depth >= self._tier_limits[self._tier[idx]]:
                self.shed_tier += 1
                return False
        return True

    # -- outcomes ------------------------------------------------------------

    def on_served(self, now_s: float, count: int) -> None:
        """Feed a dispatched batch's successes into the breaker window."""
        if self._door is not None and count:
            self._door.record(now_s, SERVED, count=count)

    def on_failure(self, idx: int, now_s: float, code: int) -> float | None:
        """Book one failed attempt; returns the retry instant, or None.

        The decision ladder: outcome retryable → policy attempt/deadline
        budget → adaptive give-up → token bucket.  The jitter draw is
        the plan-time uniform for exactly this (request, retry-number)
        pair, so replays and evaluation-order perturbations cannot move
        it — and because the adaptive check reads the *same* indexed
        draw, give-up decisions replay byte-identically too.  Give-up is
        checked before the token spend: a retry the client already knows
        cannot beat its deadline must not drain the budget the useful
        retries need.
        """
        # any failure voids a provisional degraded serving: a brownout
        # batch the outage killed mid-flight was never actually answered
        self.brownout[idx] = 0
        if self._door is not None:
            self._door.record(now_s, code)
        if code not in self._retry_on:
            return None
        retries_done = self.attempts[idx] - 1
        arrival_s = self._arrivals[idx]
        elapsed_hours = (now_s - arrival_s) / 3600.0
        if not self._policy.allows_retry(retries_done, elapsed_hours=elapsed_hours):
            self.retries_exhausted += 1
            return None
        retry = retries_done + 1  # 1-based retry number
        u = self.model.jitter_u.item(idx, retry - 1)
        instant = now_s + self._policy.backoff_seconds(retry, u=u)
        give_up = self.model.client.give_up_deadline_s
        if give_up is not None and instant - arrival_s >= give_up:
            self.retries_declined_deadline += 1
            return None
        if self._budget is not None:
            if self._tokens < 1.0:
                self.retries_denied_budget += 1
                return None
            self._tokens -= 1.0
        self.retries += 1
        return instant

    # -- dispatch-side defenses ----------------------------------------------

    def service_factor(self, depth: int) -> float:
        """Dispatch-time service-time multiplier for the current depth.

        Brownout first: a server that switched to degraded answers is
        *faster* (< 1) and, having shed its memory/compute pressure,
        never thrashes.  Otherwise a congested server past the thrash
        depth is *slower* (> 1) — the capacity collapse that makes naive
        retry storms metastable."""
        if self._brownout_depth is not None and depth >= self._brownout_depth:
            return self._brownout_speedup
        if self._thrash_depth is not None and depth >= self._thrash_depth:
            return self._thrash_slowdown
        return 1.0

    def mark_brownout(self, batch: list[int]) -> None:
        brownout = self.brownout
        for idx in batch:
            brownout[idx] = 1

    # -- observation ---------------------------------------------------------

    def sample_depth(self, now_s: float, depth: int, live_replicas: int) -> None:
        """Record one control-tick observation (the recovery timeseries)."""
        self._depth_samples.append((now_s, float(depth), float(live_replicas)))

    def finish(self) -> ResilienceOutcome:
        """Freeze the run's closed-loop observables."""
        samples = (
            np.asarray(self._depth_samples, dtype=np.float64)
            if self._depth_samples
            else np.zeros((0, 3))
        )
        if self._door is not None:
            state = self._door.state
            opens = self._door.telemetry.opens
            closes = self._door.telemetry.closes
        else:
            state, opens, closes = "absent", 0, 0
        return ResilienceOutcome(
            policy_repr=self.model.config_repr(),
            attempts=np.frombuffer(self.attempts, dtype=np.int16).copy(),
            brownout=np.frombuffer(self.brownout, dtype=bool).copy(),
            depth_samples=samples,
            retries=self.retries,
            retries_denied_budget=self.retries_denied_budget,
            retries_declined_deadline=self.retries_declined_deadline,
            retries_exhausted=self.retries_exhausted,
            shed_breaker=self.shed_breaker,
            shed_tier=self.shed_tier,
            breaker_state=state,
            breaker_opens=opens,
            breaker_closes=closes,
            tokens_left=self._tokens,
        )


__all__ = [
    "RETRYABLE",
    "ClientConfig",
    "ClosedLoopRuntime",
    "ResilienceModel",
    "ResilienceOutcome",
    "RetryBudgetConfig",
    "plan_resilience",
]
