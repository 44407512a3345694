"""Import-closure guard: what each engine package loads.

Set-up cost is the import closure (DESIGN §15).  The cohort engines
load no scipy at all: ``repro.core.cohort`` draws the standard normal
through the Cephes port in ``repro.common.numerics``, so neither it,
``repro.columnar`` nor ``repro.core.report`` loads scipy, and nothing on
their paths orders a workflow DAG, so networkx stays out too.  Nor do
they load the cloud control plane (the CLI, the managed services and the
``repro.orchestration`` stack behind them): ``repro.cloud`` binds those
on first use.  With every
scipy import made to fail, a scaled cohort still runs through the serial
testbed and the columnar engine to the digest it had when it drew
through ``scipy.special``.

The serving half pays nothing for the cohort half.  ``repro.core``,
``repro.faults.plan``, ``repro.loadgen``, ``repro.resilience`` (whose
root imports nothing, so ``repro.resilience.sweep`` stands for its
closure) and ``repro.serving`` load none of the cohort, its report, the testbed,
scipy, the supervised parallel engine, the runtime fault injector, the
checkpoint journal or the columnar engine: not at import, and not after
a serving day and a sweep point have run, so a lazy import inside a
timed body cannot quietly bring them back.  The names that ``repro.core``,
``repro.faults``, ``repro.parallel`` and ``repro.cloud`` bind on first
use (PEP 562) must all still resolve.

Each case runs in a fresh interpreter: this pytest process has already
imported everything, so ``sys.modules`` here proves nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy", "networkx")
#: The testbed's control plane, which no cohort engine runs.
CONTROL_PLANE = ("repro.orchestration", "repro.cloud.cli", "repro.cloud.managed")
COHORT_ENGINES = ("repro.columnar", "repro.core.cohort", "repro.core.report")
#: Module prefixes the serving closure must not hold.
COHORT = (
    "repro.core.cohort",
    "repro.core.report",
    "repro.cloud",
    "scipy",
    "networkx",
    "repro.parallel.engine",
    "repro.faults.inject",
    "repro.checkpoint",
    "repro.columnar",
)
SERVING = (
    "repro.core",
    "repro.faults.plan",
    "repro.loadgen",
    "repro.resilience",
    "repro.resilience.sweep",
    "repro.serving",
)
#: Module prefixes each engine package must not load at import time.
FORBIDDEN = {
    **dict.fromkeys(COHORT_ENGINES, HEAVY + CONTROL_PLANE),
    **dict.fromkeys(SERVING, COHORT),
}
LAZY = ("repro.core", "repro.faults", "repro.parallel", "repro.cloud")

#: A tiny open-loop serving day priced into a report, then one closed-loop
#: sweep point, each through the code the benchmark's serving workloads time.
SERVING_RUN = """
from dataclasses import replace
from repro.faults.plan import build_serving_calendar
from repro.loadgen import SloPolicy, TrafficConfig, build_report, generate_trace, simulate_traffic
from repro.resilience.sweep import quick_sweep_config, run_sweep
from repro.serving import DEVICE_CATALOG, InferenceEngine, food11_classifier

engine = InferenceEngine(food11_classifier(), DEVICE_CATALOG["server-cpu-16c"])
traffic = TrafficConfig(seed=0, pattern="flash", requests_per_day=2e4, duration_hours=1.0)
calendar = build_serving_calendar(duration_hours=1.0, outage_rate_per_week=2.0)
result = simulate_traffic(generate_trace(traffic), engine, calendar=calendar)
assert result.offered > 0
build_report(result, engine, SloPolicy())
quick = quick_sweep_config()
axes = replace(quick.axes, loads_rps=(250.0,), outage_lengths_s=(45.0,), dark_replicas=(0,),
               policies=("naive-retry",))
base = replace(quick.base, duration_s=150.0, outage_start_s=40.0, outage_end_s=85.0)
assert len(run_sweep(replace(quick, base=base, axes=axes)).points) == 1
"""


#: Every scipy import fails; then one scaled cohort runs through the serial
#: testbed and through the columnar engine.
NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
from repro.columnar import run_columnar
from repro.core import CohortConfig, CohortSimulation, records_digest, scaled_course

course, config = scaled_course(0.1), CohortConfig(seed=7)
print(records_digest(CohortSimulation(course, config).run()))
print(run_columnar(course, config).digest)
"""
#: Both engines' digest of that cohort, taken when it drew through scipy.special.
NO_SCIPY_DIGEST = "fe1a7918f8743a02c760a510886df8d624a211e559eb79180a5166089060161e"


def _stdout_lines(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return done.stdout.splitlines()


def _modules_after(code: str) -> list[str]:
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    return json.loads(_stdout_lines(code)[-1])


def _loaded(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_engine_import_closure_excludes(package):
    loaded = _loaded(_modules_after(f"import {package}"), FORBIDDEN[package])
    assert not loaded, f"import {package} loads {loaded[:5]}"


def test_serving_run_stays_inside_the_serving_closure():
    loaded = _loaded(_modules_after(SERVING_RUN), COHORT)
    assert not loaded, f"a serving run and a sweep point load {loaded[:5]}"


def test_lazy_reexports_all_resolve():
    """Every ``__all__`` name binds on first use, and star-imports work."""
    code = "\n".join(
        [f"import {p}\nfor name in {p}.__all__: getattr({p}, name)" for p in LAZY]
        + ["from repro.core import *", "assert CohortSimulation and table1 and CostModel"]
    )
    modules = _modules_after(code)
    assert "repro.core.cohort" in modules and "repro.parallel.engine" in modules
    assert "repro.cloud.managed" in modules


def test_cohort_runs_with_scipy_absent():
    assert _stdout_lines(NO_SCIPY_RUN) == [NO_SCIPY_DIGEST, NO_SCIPY_DIGEST]
