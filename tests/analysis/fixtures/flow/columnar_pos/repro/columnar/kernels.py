"""Fixture: the columnar kernel transitively re-resolves randomness.

The exact bug class PUR001 guards the columnar engine against: a kernel
helper "re-jitters" a column at emission time instead of consuming the
planner's resolved draws, which would diverge from the object path the
moment worker chunking changes.
"""

import time

import numpy as np


def _rejitter(start):
    rng = np.random.default_rng(1234)
    return start + rng.random(len(start))


def _stamp(columns):
    columns["emitted_at"] = time.time()
    return columns


def iter_record_batches(tables, schema, semester_hours):
    start = _rejitter(tables["start"])
    return _stamp({"start": start, "end": start + 1.0})
