"""Closed-loop resilience: retries, breakers, shedding, and the storm.

`repro.loadgen` answers "what does serving this traffic cost?" for
clients that shrug off failure.  This package models the clients real
systems actually have — ones that *retry* — and the defenses that keep
retries from becoming the outage:

* `repro.resilience.clients` — the closed loop: per-request retry
  schedules planned from seeded streams, a token-bucket retry budget
  capping amplification at 1 + fill ratio, and the front door's circuit
  breaker (the shared `repro.common.breaker` state machine, which the
  runtime feeds every outcome but a shed).
* `repro.resilience.shedding` — priority-tiered load shedding and the
  brownout mode, priced at a quality discount.
* `repro.resilience.scenario` — the metastable retry-storm experiment:
  one outage, the client-policy ladder, reported as amplification,
  time-to-recovery, and storm cost per policy.
* `repro.resilience.sweep` + `repro.resilience.report` — the one storm
  runner and the phase-map campaign: the storm fanned over load × outage
  length × outage scope × policy × budget fill × breaker threshold
  through `repro.parallel`, every point classified RECOVERED / DEGRADED /
  LOCKED and the defended survivors priced into a ($/M effective,
  time-to-recovery) Pareto frontier.  The ladder (`run_storm`) is its
  one-cell case.

Same determinism contract as every other subsystem: all randomness is
resolved at plan time, and ``python -m repro.verify storm sweep`` proves
the storm/sweep digests are byte-identical under rerun, evaluation-order
perturbation, and worker counts {1, 2, 4}.
"""
