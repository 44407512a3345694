"""Benchmark: the metastable retry-storm ladder, end to end.

The acceptance scenario of the resilience subsystem: one outage under
stationary web-scale traffic, three client policies — open-loop
no-retry, naive closed-loop retry, and budgeted retry behind a circuit
breaker — with the metastability verdict asserted (the naive rung must
lock into sustained overload *after* the fault clears; the guarded rung
must not) and the determinism contract pinned: the storm digest is
byte-identical under rerun, per-simulation evaluation-order
perturbation, and a different rung-fan-out worker count.

``--quick`` shortens the horizon and the outage; the storm still locks
the naive rung (verified in ``tests/resilience/test_scenario.py`` with
the same configuration).
"""

from repro.resilience.scenario import StormConfig
from repro.resilience.sweep import run_storm


def test_retry_storm_ladder(benchmark, quick):
    config = (
        StormConfig(duration_s=600.0, outage_start_s=150.0, outage_end_s=240.0)
        if quick
        else StormConfig()
    )

    report = benchmark.pedantic(
        lambda: run_storm(config), rounds=1, iterations=1
    )

    print()
    print(report.render())

    # the experiment's verdicts: same storm, opposite outcomes
    ladder = {m.name: m for m in report.rungs}
    assert ladder["no-retry"].amplification == 1.0
    assert not ladder["no-retry"].locked
    assert ladder["naive-retry"].locked, "naive rung must go metastable"
    guarded = ladder["budgeted-retry+breaker"]
    assert not guarded.locked
    assert guarded.amplification <= 1.0 + config.retry_budget_fill + 1e-9
    assert guarded.breaker_opens >= 1
    assert guarded.served > ladder["naive-retry"].served

    # determinism contract: rerun, perturbation, and worker count must
    # all reproduce the storm digest byte-for-byte
    assert run_storm(config, perturb=True).digest() == report.digest()
    assert run_storm(config, workers=2).digest() == report.digest()
