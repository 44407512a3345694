"""The canonical merger's digest, checked against the per-row definition.

``CanonicalMerger.finalize`` builds the digest text column by column from
``repr`` tables, one slice of a sorted bucket at a time, while
``records_digest`` hashes ``repr(tuple)`` per record.  These tests feed
hand-built columns whose floats sit on ``repr``'s edges (signed zeros,
the switches to exponent form at 1e16 and 1e-4, the smallest subnormal,
an infinite end) through a one-bucket merger, so every row shares one
sorted bucket, and hold the table-built digest to the records the same
merger collects.
"""

import math

import numpy as np
import pytest

from repro.columnar import merge
from repro.columnar.merge import CanonicalMerger
from repro.columnar.schema import KIND_CODES, SITE_CODES, ColumnSchema, RecordColumns
from repro.common.errors import ValidationError
from repro.core import records_digest, scaled_course

SCHEMA = ColumnSchema.for_course(scaled_course(0.25))
INF = math.inf

#: (start, end, quantity, kind, resource type, site, user code, lab).
#: ``end - start`` never meets ``inf - inf``: the merger's unit-hour total
#: is an exact ``math.fsum``, which raises on it.
ROWS = [
    (-0.0, 1.0, 0.0, "server", "m1.medium", "kvm@tacc", 0, "lab1"),
    (0.0, 1.0, -0.0, "floating_ip", "floating_ip", "kvm@tacc", 1, "lab1"),
    (0.0, -0.0, 1.0, "volume", "block_storage", "kvm@tacc", 12, "lab2"),
    (5e-324, 1e-05, 0.0001, "baremetal", "compute_cascadelake", "chi@tacc", 2, "lab3"),
    (1e-05, 0.0001, 1e-05, "edge", "raspberrypi5", "chi@edge", 47, "lab3"),
    (0.0001, 1e16, 1.0, "object_storage", "object_storage", "kvm@tacc", 10, "lab2"),
    (9999999999999998.0, 1e16, 5e-324, "server", "m1.large", "kvm@tacc", 9, "project"),
    (1e16, INF, 2.5, "server", "m1.medium", "kvm@tacc", SCHEMA.n_students, "project"),
    (0.1, 0.30000000000000004, 1e16, "floating_ip", "floating_ip", "kvm@tacc", 3, "lab1"),
    (-0.0, 0.0, 9999999999999998.0, "baremetal", "gpu_v100", "chi@tacc", 4, "lab3"),
    (2.0, 3.0, 1e-05, "volume", "block_storage", "kvm@tacc", SCHEMA.n_students + 1, "project"),
]


def _columns(rows) -> RecordColumns:
    start, end, qty, kind, rtype, site, user, lab = zip(*rows)
    return RecordColumns(
        start=np.array(start, dtype=np.float64),
        end=np.array(end, dtype=np.float64),
        quantity=np.array(qty, dtype=np.float64),
        kind=np.array([KIND_CODES[k] for k in kind], dtype=np.int8),
        rtype=np.array([SCHEMA.rtype_codes[r] for r in rtype], dtype=np.int16),
        site=np.array([SITE_CODES[s] for s in site], dtype=np.int8),
        user=np.array(user, dtype=np.int32),
        lab=np.array([SCHEMA.lab_codes[name] for name in lab], dtype=np.int16),
    )


def _merger(tmp_path=None) -> CanonicalMerger:
    merger = CanonicalMerger(SCHEMA, 10.0, n_buckets=1, spill_dir=tmp_path, spill_rows=4)
    merger.add(_columns(ROWS[:6]))
    merger.add(_columns(ROWS[6:]))
    return merger


@pytest.mark.parametrize("slice_rows", (merge.DIGEST_SLICE_ROWS, 3), ids=("default", "3"))
def test_table_digest_equals_per_row_repr(monkeypatch, slice_rows):
    monkeypatch.setattr(merge, "DIGEST_SLICE_ROWS", slice_rows)
    result = _merger().finalize(collect_records=True)
    records = result.records
    assert result.count == len(records) == len(ROWS)
    # the fixture really reaches repr's edges in the merged records
    zero_signs = {math.copysign(1.0, r.start) for r in records if r.start == 0.0}
    assert zero_signs == {1.0, -1.0}
    assert {r.end for r in records} >= {1e16, INF, 1e-05}
    assert result.digest == records_digest(records)


@pytest.mark.parametrize("spill", (False, True))
def test_finalize_runs_once(tmp_path, spill):
    merger = _merger(tmp_path if spill else None)
    first = merger.finalize()
    assert first.count == len(ROWS)
    with pytest.raises(ValidationError, match="merger already finalized"):
        merger.finalize()
    with pytest.raises(ValidationError, match="merger already finalized"):
        merger.add(_columns(ROWS))
