"""Import-closure guard: what each engine package loads.

Set-up cost is the import closure (DESIGN §15).  The engines need
``scipy.special`` for the cohort draws, not ``scipy.stats``, and nothing
on their paths orders a workflow DAG, so networkx stays out too.

The serving half pays nothing for the cohort half.  ``repro.core``,
``repro.faults.plan``, ``repro.loadgen``, ``repro.resilience`` and
``repro.serving`` load none of the cohort, its report, the testbed,
scipy, the supervised parallel engine, the runtime fault injector, the
checkpoint journal or the columnar engine: not at import, and not after
a serving day and a sweep point have run, so a lazy import inside a
timed body cannot quietly bring them back.  The names that ``repro.core``,
``repro.faults`` and ``repro.parallel`` bind on first use (PEP 562) must
all still resolve.

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

HEAVY = ("scipy.stats", "networkx")
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
SERVING = ("repro.core", "repro.faults.plan", "repro.loadgen", "repro.resilience", "repro.serving")
#: Module prefixes each engine package must not load at import time.
FORBIDDEN = {"repro.columnar": HEAVY, **dict.fromkeys(SERVING, COHORT)}
LAZY = ("repro.core", "repro.faults", "repro.parallel")

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


def _modules_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


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
