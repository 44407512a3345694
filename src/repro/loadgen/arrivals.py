"""Seeded open-loop arrival processes over simulated-clock time.

Traffic is generated as a *trace* — a sorted array of arrival timestamps
in simulated seconds — before the serving simulation ever runs, mirroring
the plan/execute split of `repro.parallel`: all randomness is resolved
here, so the operations layer (queueing, batching, autoscaling) stays
RNG-free and its digest contract is a pure function of (trace, config,
fault calendar).

Three arrival patterns, each a web-traffic archetype:

* **poisson** — homogeneous Poisson at the mean rate (the memoryless
  baseline every queueing result is stated against).
* **diurnal** — inhomogeneous Poisson whose intensity follows a 24-hour
  sinusoid (configurable peak hour and peak-to-trough ratio), generated
  by thinning against the peak rate.
* **flash** — the diurnal curve plus seeded flash crowds: short windows
  during which the instantaneous rate multiplies (a launch, a viral
  post), the scenario that forces the autoscaler to earn its keep.

Rates are specified in requests/day ("millions of requests per day" is
the design axis), and generation is fully vectorized — a 10M-request day
materializes in well under a second.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError

SECONDS_PER_DAY = 86400.0

PATTERNS = ("poisson", "diurnal", "flash")


@dataclass(frozen=True)
class TrafficConfig:
    """One traffic scenario, fully determined by its field values.

    ``requests_per_day`` is the *mean* offered rate; the diurnal and
    flash modulations preserve it in expectation (the sinusoid has mean
    1, flash windows add on top).
    """

    seed: int = 0
    pattern: str = "diurnal"
    requests_per_day: float = 1_000_000.0
    duration_hours: float = 24.0
    #: Diurnal shape: intensity ratio between the daily peak and trough.
    peak_to_trough: float = 4.0
    #: Hour-of-day (simulated) the diurnal intensity peaks at.
    peak_hour: float = 20.0
    #: Flash crowds: how many strike the horizon, how hard, how long.
    flash_count: int = 2
    flash_multiplier: float = 10.0
    flash_duration_s: float = 300.0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValidationError(
                f"unknown arrival pattern {self.pattern!r}; expected one of {PATTERNS}"
            )
        if self.requests_per_day <= 0 or self.duration_hours <= 0:
            raise ValidationError(f"rate and duration must be positive: {self!r}")
        if self.peak_to_trough < 1.0:
            raise ValidationError(
                f"peak_to_trough must be >= 1: {self.peak_to_trough!r}"
            )
        if not (0.0 <= self.peak_hour < 24.0):
            raise ValidationError(f"peak_hour must be in [0, 24): {self.peak_hour!r}")
        if self.flash_count < 0 or self.flash_multiplier < 1.0 or self.flash_duration_s <= 0:
            raise ValidationError(f"invalid flash-crowd settings: {self!r}")

    @property
    def rate_rps(self) -> float:
        """Mean offered rate in requests/second."""
        return self.requests_per_day / SECONDS_PER_DAY

    @property
    def duration_s(self) -> float:
        return self.duration_hours * 3600.0

    @property
    def diurnal_amplitude(self) -> float:
        """Sinusoid amplitude ``a`` with peak ``1+a`` and trough ``1-a``."""
        r = self.peak_to_trough
        return (r - 1.0) / (r + 1.0)


@dataclass(frozen=True)
class RequestTrace:
    """The resolved traffic: sorted arrival timestamps (simulated seconds)."""

    config: TrafficConfig
    arrivals_s: np.ndarray

    def __len__(self) -> int:
        return len(self.arrivals_s)

    @property
    def offered_rps(self) -> float:
        """Realized mean rate over the horizon."""
        return len(self.arrivals_s) / self.config.duration_s

    @property
    def offered_per_day(self) -> float:
        return self.offered_rps * SECONDS_PER_DAY

    def digest(self) -> str:
        """SHA-256 of the exact arrival bytes plus the generating config.

        The request-trace digest: byte-identical traces are the
        precondition of every downstream determinism claim (each run of
        the ``loadgen`` gate in :mod:`repro.verify` regenerates it).
        """
        h = hashlib.sha256()
        h.update(repr(self.config).encode())
        h.update(self.arrivals_s.tobytes())
        return h.hexdigest()


def _homogeneous(
    rng: np.random.Generator, rate_rps: float, start_s: float, end_s: float
) -> np.ndarray:
    """A homogeneous Poisson stream on [start, end) via order statistics."""
    span = end_s - start_s
    if span <= 0 or rate_rps <= 0:
        return np.empty(0)
    n = int(rng.poisson(rate_rps * span))
    if n == 0:
        return np.empty(0)
    return np.sort(rng.uniform(start_s, end_s, size=n))


def _diurnal_intensity(config: TrafficConfig, t_s: np.ndarray) -> np.ndarray:
    """Relative intensity (mean 1) of the diurnal curve at times ``t_s``."""
    a = config.diurnal_amplitude
    phase = 2.0 * np.pi * (t_s / 3600.0 - config.peak_hour) / 24.0
    return 1.0 + a * np.cos(phase)


def generate_trace(config: TrafficConfig) -> RequestTrace:
    """Resolve a :class:`TrafficConfig` into its seeded request trace.

    Three independent streams are spawned from the config seed —
    (base process, thinning draws, flash crowds) — so changing e.g. the
    flash settings never perturbs the base arrivals.
    """
    base_ss, thin_ss, flash_ss = np.random.SeedSequence(config.seed).spawn(3)
    horizon = config.duration_s

    if config.pattern == "poisson":
        arrivals = _homogeneous(
            np.random.default_rng(base_ss), config.rate_rps, 0.0, horizon
        )
    else:
        # inhomogeneous Poisson by thinning against the peak intensity
        peak_rate = config.rate_rps * (1.0 + config.diurnal_amplitude)
        candidates = _homogeneous(np.random.default_rng(base_ss), peak_rate, 0.0, horizon)
        if len(candidates):
            accept_p = (
                config.rate_rps
                * _diurnal_intensity(config, candidates)
                / peak_rate
            )
            u = np.random.default_rng(thin_ss).uniform(size=len(candidates))
            arrivals = candidates[u < accept_p]
        else:
            arrivals = candidates

    if config.pattern == "flash" and config.flash_count > 0:
        rng = np.random.default_rng(flash_ss)
        spike_rate = config.rate_rps * (config.flash_multiplier - 1.0)
        bursts = [arrivals]
        # flash start times: seeded, kept clear of the horizon's end so a
        # crowd never half-falls off the trace
        latest = max(horizon - config.flash_duration_s, 0.0)
        starts = np.sort(rng.uniform(0.0, latest, size=config.flash_count))
        for k in range(config.flash_count):
            start = float(starts[k])
            bursts.append(
                _homogeneous(rng, spike_rate, start, start + config.flash_duration_s)
            )
        arrivals = np.sort(np.concatenate(bursts))

    return RequestTrace(config=config, arrivals_s=np.ascontiguousarray(arrivals))
