"""Columnar vs object-path cohort throughput: the 1M-student headline.

The columnar engine's pitch is "same bytes, an order of magnitude less
work per student".  This bench holds it to both halves:

* **Same bytes** — a paper-scale serial run and a columnar run must land
  on the same ``records_digest`` (re-asserting the tests/columnar gate
  inside the bench, so a throughput number can never be quoted from a
  divergent engine).
* **Throughput** — the full run simulates a 1,000,076-student semester
  through the columnar engine on one machine and compares per-student
  wall time against the serial object path.  The serial baseline is
  measured at 4x scale (764 students).  The object path's cost per
  student is about flat in cohort size (2,197, 2,809 and 2,491
  us/student at 1x, 4x and 8x; medians of four runs on a 2-vCPU Xeon),
  so the 4x rate stands in for the serial rate at 1M.  The paper-scale
  serial rate is also recorded for reference.

The measured numbers, with the machine they came from and whether the
floor was met, are written to ``BENCH_columnar.json`` at the repo root
(full runs only) before the floor is asserted, so a run that misses the
floor still records what it measured.  ``--quick`` (CI smoke) shrinks
the cohort to half scale and keeps only the digest gate and a sanity
floor.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.columnar import run_columnar
from repro.core import CohortSimulation, records_digest, scaled_course
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE

#: The acceptance floor: columnar per-student throughput must beat the
#: object path's by this factor on the 1M run.
THROUGHPUT_FLOOR = 50.0
#: 1,000,076 students (5236 x 191) — the "million students, one machine" target.
FULL_SCALE = 5236.0


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()  # repro: noqa DET001 (bench harness wall-clock, not simulation state)
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0  # repro: noqa DET001 (bench harness wall-clock, not simulation state)


def test_columnar_throughput_vs_serial(benchmark, quick, tmp_path):
    config = CohortConfig(seed=42)

    # -- the hard gate: digest equality on the paper cohort -----------------
    serial_paper, serial_paper_s = _timed(
        lambda: CohortSimulation(COURSE, config).run()
    )
    columnar_paper, _ = _timed(run_columnar, COURSE, config)
    assert columnar_paper.digest == records_digest(serial_paper)

    # -- serial per-student baseline ----------------------------------------
    baseline_scale = 0.5 if quick else 4.0
    baseline_course = scaled_course(baseline_scale)
    _, serial_s = _timed(lambda: CohortSimulation(baseline_course, config).run())
    serial_us = 1e6 * serial_s / baseline_course.enrollment
    serial_paper_us = 1e6 * serial_paper_s / COURSE.enrollment

    # -- the columnar run ---------------------------------------------------
    scale = 0.5 if quick else FULL_SCALE
    course = scaled_course(scale)
    run = benchmark.pedantic(
        run_columnar,
        args=(course, config),
        kwargs={"digest": quick, "spill_dir": tmp_path},
        rounds=1,
        iterations=1,
    )
    columnar_s = benchmark.stats.stats.total
    columnar_us = 1e6 * columnar_s / run.students
    speedup = serial_us / columnar_us if columnar_us > 0 else float("inf")

    assert run.students == course.enrollment
    if quick:
        # at equal scale the digests must agree outright
        serial_q = CohortSimulation(course, config).run()
        assert run.digest == records_digest(serial_q)

    results = {
        "students": run.students,
        "groups": run.groups,
        "activities": run.activities,
        "records": run.records,
        "columnar_s": round(columnar_s, 3),
        "columnar_us_per_student": round(columnar_us, 1),
        "serial_baseline_students": baseline_course.enrollment,
        "serial_baseline_s": round(serial_s, 3),
        "serial_us_per_student": round(serial_us, 1),
        "serial_paper_us_per_student": round(serial_paper_us, 1),
        "per_student_speedup": round(speedup, 1),
        "quota_fast_path": run.sweep_info.get("quota_fast_path"),
        "lease_fast_path": run.sweep_info.get("lease_fast_path"),
        "throughput_floor": THROUGHPUT_FLOOR,
        "floor_met": speedup >= THROUGHPUT_FLOOR,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quick": quick,
    }
    benchmark.extra_info.update(results)
    print()
    print(
        f"columnar {run.students} students in {columnar_s:.1f}s "
        f"({columnar_us:.1f}us/student) vs serial {serial_us:.0f}us/student "
        f"at {baseline_course.enrollment} students -> {speedup:.0f}x per student"
    )

    if not quick:
        out = Path(__file__).resolve().parents[1] / "BENCH_columnar.json"
        out.write_text(json.dumps(results, indent=2) + "\n")
        assert speedup >= THROUGHPUT_FLOOR, (
            f"columnar only {speedup:.1f}x per-student vs the object path "
            f"(floor {THROUGHPUT_FLOOR}x on the {run.students}-student run)"
        )
