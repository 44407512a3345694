"""Self-test of the benchmark on tiny inputs.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload it runs ``run.py --tiny`` at the workload's default
seed and asserts that:

* the timed run prints every end-to-end metric of ``BENCHMARK.json`` with
  its unit, and its outputs pass their checks;
* two traced runs print every per-layer metric with its unit, and every
  count in them repeats exactly;
* serving-flash makes no call into ``resilience.clients``;
* a planted wrong reference digest is reported as failed operations,
  not a crash and not a pass.

Last, it runs the benchmark in a directory that holds only
``BENCHMARK.json`` and ``perfbench/``, where it must exit non-zero
without printing a result.  Exits 0 when every assertion holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

TIMEOUT_S = 180


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def result_of(done: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    """The last stdout line, checked against the contract and the metric list."""
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in metrics]
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)), (m, got)
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), f"{m['name']} is not reported with its unit"
    return result


def check_workload(name: str) -> None:
    seed = str(WORKLOADS[name].default_seed)
    common = ("--workload", name, "--seed", seed, "--seconds", "1", "--tiny")

    timed = result_of(bench(*common, "--trace", "0"), SPEC["end_to_end"])
    assert timed["correct"] and timed["failed"] == 0, timed
    assert all(m["value"] > 0 for m in timed["metrics"].values()), timed

    first, second = (result_of(bench(*common, "--trace", "1"), SPEC["per_layer"])
                     for _ in range(2))
    assert first["correct"] and second["correct"], (first, second)
    for m in SPEC["per_layer"]:
        if m["unit"] != "s" and m["name"] != "trace.overhead_share":
            a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
            assert a == b, f"{name}: {m['name']} differs between traced runs: {a} != {b}"
    if name == "serving-flash":
        for m in SPEC["per_layer"]:
            if m["name"].startswith("resilience.clients.") and m["name"].endswith(".calls"):
                assert first["metrics"][m["name"]]["value"] == 0, m["name"]

    planted = result_of(bench(*common, "--trace", "0", "--plant-mismatch"), SPEC["end_to_end"])
    assert not planted["correct"] and planted["failed"] > 0, planted
    print(f"ok {name}: {timed['attempted']} checked operations, "
          f"{len(SPEC['per_layer'])} per-layer metrics repeat, planted mismatch caught")


def check_refuses_without_program() -> None:
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    try:
        done = bench("--workload", "semester", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout
    print("ok refuses to run without the program")


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
