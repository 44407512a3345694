"""Fixture: the sweep's plan/execute split done right.

``_plan_point`` resolves every draw through the plan-time clients module,
seeded from the spec, before the purity boundary; ``_simulate_point`` —
the registered shard entry point — is a pure fold over the planned arrays.
"""

from repro.resilience.clients import plan_resilience


def _plan_point(spec):
    return plan_resilience(8, spec.seed)


def _simulate_point(spec, trace, engine, calendar, model):
    verdict = 0.0
    for idx in range(4):
        verdict += float(model[idx])
    return verdict


def _run_point(spec):
    model = _plan_point(spec)
    return _simulate_point(spec, None, None, None, model)
