"""Fixture: pure columnar kernel — closed forms over planner-resolved columns.

Mirrors the real ``repro.columnar.kernels``: all randomness was resolved
at plan time, emission is arithmetic on arrays.  The planner module
roots its own Generator (from the config's seed, as SEED001 requires),
and that must not trip the kernel's purity check because emission never
calls it.
"""

import numpy as np


def _cap(end, horizon):
    return np.minimum(end, horizon - 1e-6)


def iter_record_batches(tables, schema, semester_hours):
    start = np.asarray(tables["start"])
    end = _cap(start + np.asarray(tables["hours"]), semester_hours)
    return {"start": start, "end": end, "quantity": np.ones(len(start))}
