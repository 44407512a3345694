"""The canonical merger's digest, checked against the per-row definition.

``CanonicalMerger.finalize`` builds the digest bytes as a NUL-padded
matrix of column blocks, one slice of a sorted bucket at a time, while
``records_digest`` hashes ``repr(tuple)`` per record.  These tests feed
columns whose floats sit on ``repr``'s edges (signed zeros, the switches
to exponent form at 1e16 and 1e-4, the smallest subnormal, an infinite
end) through a one-bucket merger, so every row shares one sorted bucket,
and hold the byte-built digest to the records the same merger collects.
A Hypothesis property does the same for generated batches: arbitrary
float bit patterns, lab ids that ``repr`` quotes or escapes, id serials
that cross into seven and eight digits, and any slice size.
"""

import dataclasses
import math
import struct
from itertools import chain
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.columnar import merge
from repro.columnar.merge import CanonicalMerger
from repro.columnar.schema import (
    KIND_CODES,
    KIND_NAMES,
    SITE_CODES,
    SITE_NAMES,
    ColumnSchema,
    RecordColumns,
)
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


@pytest.fixture
def merger(monkeypatch) -> CanonicalMerger:
    monkeypatch.setattr(merge, "N_BUCKETS", 1)
    merger = CanonicalMerger(SCHEMA, 10.0)
    merger.add(_columns(ROWS[:6]))
    merger.add(_columns(ROWS[6:]))
    return merger


@pytest.mark.parametrize("slice_rows", (merge.DIGEST_SLICE_ROWS, 3), ids=("default", "3"))
def test_table_digest_equals_per_row_repr(monkeypatch, merger, slice_rows):
    monkeypatch.setattr(merge, "DIGEST_SLICE_ROWS", slice_rows)
    result = merger.finalize(collect_records=True)
    records = result.records
    assert result.count == len(records) == len(ROWS)
    # the fixture really reaches repr's edges in the merged records
    zero_signs = {math.copysign(1.0, r.start) for r in records if r.start == 0.0}
    assert zero_signs == {1.0, -1.0}
    assert {r.end for r in records} >= {1e16, INF, 1e-05}
    assert result.digest == records_digest(records)


def test_finalize_runs_once(merger):
    first = merger.finalize()
    assert first.count == len(ROWS)
    with pytest.raises(ValidationError, match="merger already finalized"):
        merger.finalize()
    with pytest.raises(ValidationError, match="merger already finalized"):
        merger.add(_columns(ROWS))


# -- generated batches ---------------------------------------------------------------

#: Lab ids that ``repr`` does not simply wrap in single quotes: a quote
#: (double-quoted), both quotes (escaped), a backslash (doubled) and a
#: non-ASCII letter (kept, two bytes in UTF-8).  Sorted, as the schema's
#: rank encoding requires.
ODD_LABS = tuple(sorted(("lab'q", "lab\"q'", "lab\\b", "labé", "project")))
ODD_SCHEMA = dataclasses.replace(
    SCHEMA, lab_names=ODD_LABS, lab_codes={name: code for code, name in enumerate(ODD_LABS)}
)
N_USERS = SCHEMA.n_students + SCHEMA.n_groups


def _bits(x: float) -> int:
    return int.from_bytes(struct.pack("<d", x), "little")


#: Floats on ``repr``'s edges: signed zeros, the smallest and largest
#: subnormals and normals, both infinities, NaN, and either side of the
#: switches to exponent form at 1e16 and 1e-4.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, math.inf, -math.inf, math.nan,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 0.1, 1.0, 2.5,
)
FLOAT_BITS = st.one_of(
    st.sampled_from([_bits(x) for x in EDGE_FLOATS]),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.floats().map(_bits),
)


@st.composite
def batches(draw):
    """Row tuples of (start, end, quantity) bit patterns and codes, cut
    into batches, with one (site, kind) pair that about half the rows share
    so that its serials run long."""
    hot = (draw(st.integers(0, len(SITE_NAMES) - 1)), draw(st.integers(0, len(KIND_NAMES) - 1)))
    pair = st.one_of(
        st.just(hot),
        st.tuples(st.integers(0, len(SITE_NAMES) - 1), st.integers(0, len(KIND_NAMES) - 1)),
    )
    rows = draw(
        st.lists(
            st.tuples(
                FLOAT_BITS, FLOAT_BITS, FLOAT_BITS, pair,
                st.integers(0, len(SCHEMA.rtype_names) - 1),
                st.integers(0, N_USERS - 1),
                st.integers(0, len(ODD_LABS) - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return hot, [rows[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(rows)])]


def _bit_columns(rows) -> RecordColumns:
    """Columns from bit patterns, ordered so that each row is a valid
    ``UsageRecord``: ``end < start`` is swapped and a negative quantity
    loses its sign (NaN compares false, so it stays as drawn)."""
    start, end, qty = (
        np.array([row[i] for row in rows], dtype=np.uint64).view(np.float64) for i in range(3)
    )
    swap = end < start
    start[swap], end[swap] = end[swap], start[swap]
    qty[qty < 0] = -qty[qty < 0]
    return RecordColumns(
        start=start,
        end=end,
        quantity=qty,
        kind=np.array([row[3][1] for row in rows], dtype=np.int8),
        rtype=np.array([row[4] for row in rows], dtype=np.int16),
        site=np.array([row[3][0] for row in rows], dtype=np.int8),
        user=np.array([row[5] for row in rows], dtype=np.int32),
        lab=np.array([row[6] for row in rows], dtype=np.int16),
    )


def _counters_from(pair: int, serial: int):
    """``_mint_serials`` as if ``serial`` ids of ``pair`` came before."""
    mint = merge._mint_serials
    fresh = [True]

    def seeded(cols, counters):
        if fresh:
            counters[pair] = serial
            fresh.clear()
        return mint(cols, counters)

    return seeded


def _merge(batch_list, *, n_buckets=1, slice_rows=merge.DIGEST_SLICE_ROWS, pair=0, serial=0):
    with (
        patch.object(merge, "N_BUCKETS", n_buckets),
        patch.object(merge, "DIGEST_SLICE_ROWS", slice_rows),
        patch.object(merge, "_mint_serials", _counters_from(pair, serial)),
        np.errstate(over="ignore", invalid="ignore"),  # unit hours of extreme spans
    ):
        merger = CanonicalMerger(ODD_SCHEMA, 10.0)
        for batch in batch_list:
            merger.add(batch)
        return merger.finalize(collect_records=True)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    drawn=batches(),
    serial=st.sampled_from((0, 999_990, 9_999_990)),
    n_buckets=st.integers(1, 4),
    slice_rows=st.integers(1, 50),
)
def test_byte_rows_equal_per_row_repr(drawn, serial, n_buckets, slice_rows):
    hot, row_batches = drawn
    batch_list = [_bit_columns(rows) for rows in row_batches]
    # the unit-hour total is an exact ``math.fsum``, which has no value for
    # finite terms whose sum leaves the float range (it raises instead)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [(b.quantity * (b.end - b.start)).tolist() for b in batch_list]
    try:
        math.fsum(chain.from_iterable(terms))
    except OverflowError:
        assume(False)
    result = _merge(
        batch_list, n_buckets=n_buckets, slice_rows=slice_rows,
        pair=hot[0] * len(KIND_NAMES) + hot[1], serial=serial,
    )
    assert result.count == len(result.records) == sum(map(len, row_batches))
    assert result.digest == records_digest(result.records)


@pytest.mark.parametrize("serial", (999_990, 9_999_990))
def test_serials_grow_past_six_digits(serial):
    """Twelve server rows at one site whose serials cross a power of ten,
    so one slice mixes two digit widths."""
    site, kind = SITE_CODES["kvm@tacc"], KIND_CODES["server"]
    rows = [
        (_bits(h), _bits(h + 1.0), _bits(1.0), (site, kind), 0, 0, 0)
        for h in map(float, range(12))
    ]
    result = _merge([_bit_columns(rows)], pair=site * len(KIND_NAMES) + kind, serial=serial)
    ids = [record.resource_id for record in result.records]
    assert ids == [f"vm-{n}" for n in range(serial + 1, serial + 13)]
    assert len({len(rid) for rid in ids}) == 2
    assert result.digest == records_digest(result.records)
