"""Import-closure guard: what each engine package loads at import time.

Set-up cost is the import closure (DESIGN §15).  The engines need
``scipy.special`` for the cohort draws, not ``scipy.stats``, and nothing
on their paths orders a workflow DAG, so networkx stays out too.  The
serving and resilience engines never plan columnar tables.

Each case imports one package in a fresh interpreter: this pytest process
has already imported everything, so ``sys.modules`` here proves nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.stats", "networkx")
#: Module prefixes each engine package must not load at import time.
FORBIDDEN = {
    "repro.core": HEAVY,
    "repro.columnar": HEAVY,
    "repro.loadgen": HEAVY + ("repro.columnar",),
    "repro.resilience": HEAVY + ("repro.columnar",),
}


def _import_closure(package: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import json, sys; import {package}; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=120,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_engine_import_closure_excludes(package):
    modules = _import_closure(package)
    for prefix in FORBIDDEN[package]:
        loaded = [m for m in modules if m == prefix or m.startswith(prefix + ".")]
        assert not loaded, f"import {package} loads {prefix}: {loaded[:3]}"
