"""Canonical merge over record columns: sort, mint ids, digest — bucketed.

The object path canonicalizes by sorting the complete record list under
:func:`repro.core.usage.canonical_sort_key` and re-minting resource ids
with per-(site, prefix) counters in first-appearance order.  This module
produces the byte-identical stream from column batches without ever
holding all records sorted at once:

* **Bucketing.** `start` is the primary sort key, so partitioning rows
  by fixed start-time edges (``searchsorted`` — equal starts always land
  in the same bucket) splits the global sort into independent per-bucket
  sorts whose concatenation *is* the global order.  The sort's working
  set is the largest of :data:`N_BUCKETS` buckets, not the cohort (at
  10**6 students, 1.5 M of 17.8 M rows).
* **Per-bucket order.** ``np.lexsort`` over (quantity, lab, user-rank,
  rtype, kind, site, end, start) — every vocabulary is rank-encoded
  (codes sort like the strings; see :mod:`repro.columnar.schema`), and
  user codes go through the schema's explicit rank table because user
  strings do NOT sort like user indices ("student1000" < "student999").
  Key ties are only possible between fully identical records (the key
  covers every content field), so tie order cannot change the stream.
* **Id minting.** (site, kind) determines the id prefix, so per-pair
  integer serials advance by row order within each bucket and carry
  across buckets — exactly the first-appearance order of the serial
  canonicalizer.  The digest writes their digits and collected records
  format their ids from the same serials.
* **Digest.** SHA-256 over the UTF-8 of ``repr(astuple(record))`` per
  row — the definition :func:`repro.core.report.records_digest` applies
  to the object path — built without a Python object per row.  Hashing a
  concatenation equals streaming its parts, so finalize writes each
  slice of :data:`DIGEST_SLICE_ROWS` sorted rows as one row-major
  ``uint8`` matrix of column blocks, each NUL-padded to its width:

  - blocks taken from byte tables built once per merger: the id's head
    (by kind), kind with rtype and the constant project, user, lab with
    site — each with the text around it in the tuple's repr;
  - the serials' ASCII digits, six wide as ``{serial:06d}`` writes them,
    and wider past 999,999;
  - the three floats, one ``float.__repr__`` per distinct 64-bit pattern
    in each float column of the slice (by pattern, not value: ``-0.0 ==
    0.0`` but their reprs differ; the reprs are Python-float reprs, as
    ``.tolist()`` gives).

  One boolean compress drops the padding and one ``update`` hashes the
  slice.  NUL is a safe sentinel: ``repr`` escapes U+0000, so the UTF-8
  of a repr never holds a 0x00 byte, and the compressed bytes are
  exactly the per-row text.  Floats stay on ``repr``, the formatter the
  definition names: a vectorized port of its shortest-digit search
  matched it bit for bit but ran slower than one call per pattern.
* **Totals.** ``quantity * (end - start)`` per row, summed with
  :func:`repro.common.numerics.stable_sum` over the whole multiset —
  exactly equal to the same sum of ``UsageRecord.unit_hours`` over the
  materialized records, independent of bucketing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.cloud.metering import UsageRecord
from repro.columnar.schema import (
    KIND_NAMES,
    KIND_PREFIXES,
    SITE_NAMES,
    ColumnSchema,
    RecordColumns,
)
from repro.common.errors import ValidationError
from repro.common.numerics import stable_sum

#: Rows per digest slice: finalize builds and hashes the byte matrix of a
#: sorted bucket this many rows at a time, so the matrix stays bounded
#: however large a bucket grows.
DIGEST_SLICE_ROWS = 65_536
#: Start-time buckets.  Correctness is independent of the count (tests
#: vary it).
N_BUCKETS = 64


@dataclass(frozen=True)
class MergeResult:
    """What the canonical merge hands back."""

    count: int
    unit_hours: float
    digest: str | None
    records: list[UsageRecord] | None


class CanonicalMerger:
    """Streaming canonicalizer: feed column batches, finalize once."""

    def __init__(self, schema: ColumnSchema, semester_hours: float) -> None:
        self._schema = schema
        # interior edges over [0, H]; starts may exceed H (zero-duration
        # semester-end rows land in the last bucket regardless)
        self._edges = np.linspace(0.0, semester_hours, N_BUCKETS + 1)[1:-1]
        self._chunks: list[list[RecordColumns]] = [[] for _ in range(N_BUCKETS)]
        self._finalized = False

    def add(self, batch: RecordColumns) -> None:
        """Route one column batch into its start-time buckets."""
        if self._finalized:
            raise ValidationError("merger already finalized")
        if not len(batch):
            return
        bucket = np.searchsorted(self._edges, batch.start, side="right")
        for b in np.unique(bucket):
            self._chunks[b].append(batch.take(np.flatnonzero(bucket == b)))

    def finalize(
        self, *, digest: bool = True, collect_records: bool = False
    ) -> MergeResult:
        """Sort each bucket, mint ids across buckets, stream the digest."""
        if self._finalized:
            raise ValidationError("merger already finalized")
        self._finalized = True
        schema = self._schema
        sha = hashlib.sha256() if digest else None
        # site * len(KIND_NAMES) + kind -> the pair's last serial
        counters = np.zeros(len(SITE_NAMES) * len(KIND_NAMES), dtype=np.int64)
        unit_parts: list[np.ndarray] = []
        records: list[UsageRecord] | None = [] if collect_records else None
        row_bytes = _RowBytes(schema) if digest else None
        count = 0
        for b in range(len(self._chunks)):
            cols = RecordColumns.concat(self._chunks[b])
            self._chunks[b] = []
            n = len(cols)
            if not n:
                continue
            count += n
            order = np.lexsort(
                (
                    cols.quantity,
                    cols.lab,
                    schema.user_rank[cols.user],
                    cols.rtype,
                    cols.kind,
                    cols.site,
                    cols.end,
                    cols.start,
                )
            )
            cols = cols.take(order)
            unit_parts.append(cols.quantity * (cols.end - cols.start))
            if sha is None and records is None:
                continue  # no id is minted, so the counters are never read
            serials = _mint_serials(cols, counters)
            if sha is not None:
                for lo in range(0, n, DIGEST_SLICE_ROWS):
                    sha.update(row_bytes.rows(cols, serials, slice(lo, lo + DIGEST_SLICE_ROWS)))
            if records is not None:
                ids = [
                    f"{KIND_PREFIXES[kind]}-{serial:06d}"
                    for kind, serial in zip(cols.kind.tolist(), serials.tolist())
                ]
                kind_names = np.take(np.array(KIND_NAMES, dtype=object), cols.kind)
                rtype_names = np.take(np.array(schema.rtype_names, dtype=object), cols.rtype)
                site_names = np.take(np.array(SITE_NAMES, dtype=object), cols.site)
                lab_names = np.take(np.array(schema.lab_names, dtype=object), cols.lab)
                users = np.take(schema.user_names, cols.user)
                rows = zip(
                    ids, kind_names, rtype_names,
                    cols.start.tolist(), cols.end.tolist(), cols.quantity.tolist(),
                    users, lab_names, site_names,
                )
                records.extend(
                    UsageRecord(
                        resource_id=rid, kind=kind, resource_type=rtype,
                        project="course", start=start, end=end,
                        quantity=qty, user=user, lab=lab, site=site,
                    )
                    for rid, kind, rtype, start, end, qty, user, lab, site in rows
                )
        unit_hours = stable_sum(chain.from_iterable(part.tolist() for part in unit_parts))
        return MergeResult(
            count=count,
            unit_hours=unit_hours,
            digest=sha.hexdigest() if sha is not None else None,
            records=records,
        )


class _RowBytes:
    """The digest's bytes, built as a row-major matrix (see the module docstring).

    Each block holds one field's ``repr`` (UTF-8) with the text around it
    in the tuple's repr, NUL-padded to the block's width.  Adjacent code
    fields share one table: kind with rtype (and the constant project),
    lab with site.  The tables are built once per merger.
    """

    def __init__(self, schema: ColumnSchema) -> None:
        self._n_rtypes = len(schema.rtype_names)
        # an id is letters, a hyphen and digits, so its repr is the id in
        # single quotes: the head opens it, ``_kind_rtype`` closes it
        self._id_head = _byte_table([f"('{prefix}-" for prefix in KIND_PREFIXES])
        self._kind_rtype = _byte_table(
            [
                f"', {kind!r}, {rtype!r}, {'course'!r}, "
                for kind in KIND_NAMES
                for rtype in schema.rtype_names
            ]
        )
        self._user = _byte_table([f"{user!r}, " for user in schema.user_names.tolist()])
        self._lab_site = _byte_table(
            [f"{lab!r}, {site!r})" for lab in schema.lab_names for site in SITE_NAMES]
        )

    def rows(self, cols: RecordColumns, serials: np.ndarray, part: slice) -> np.ndarray:
        """The concatenated UTF-8 ``repr(tuple)`` bytes of rows ``part``."""
        kind = cols.kind[part]
        kind_rtype = kind.astype(np.int64) * self._n_rtypes + cols.rtype[part]
        lab_site = cols.lab[part].astype(np.int64) * len(SITE_NAMES) + cols.site[part]
        matrix = np.concatenate(
            (
                np.take(self._id_head, kind, axis=0),
                _serial_digits(serials[part]),
                np.take(self._kind_rtype, kind_rtype, axis=0),
                _float_text(cols.start[part]),
                _float_text(cols.end[part]),
                _float_text(cols.quantity[part]),
                np.take(self._user, cols.user[part], axis=0),
                np.take(self._lab_site, lab_site, axis=0),
            ),
            axis=1,
        )
        return matrix[matrix != 0]


def _byte_table(texts: list[str]) -> np.ndarray:
    """Row ``i`` is ``texts[i]`` in UTF-8, NUL-padded to the longest."""
    encoded = np.array([text.encode() for text in texts], dtype=bytes)
    return encoded.view(np.uint8).reshape(len(texts), encoded.itemsize)


def _float_text(col: np.ndarray) -> np.ndarray:
    """``repr(x) + ", "`` per value, NUL-padded between the two.

    One ``float.__repr__`` per distinct 64-bit pattern: by pattern, not
    value, because ``-0.0 == 0.0`` but their reprs differ.
    """
    patterns, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=bytes)
    table = np.empty((len(text), text.itemsize + 2), dtype=np.uint8)
    table[:, :-2] = text.view(np.uint8).reshape(len(text), text.itemsize)
    table[:, -2:] = np.frombuffer(b", ", dtype=np.uint8)
    return np.take(table, inverse, axis=0)


def _serial_digits(serials: np.ndarray) -> np.ndarray:
    """ASCII digits of each serial as ``{serial:06d}`` writes them.

    Right-aligned in a block as wide as the slice's widest serial; the
    places a shorter serial leaves free left of its six digits are NUL.
    """
    width = max(6, len(str(int(serials.max()))))
    digits = np.empty((len(serials), width), dtype=np.uint8)
    rest = serials
    for place in range(width - 1, -1, -1):
        rest, digits[:, place] = np.divmod(rest, 10)
    digits += ord("0")
    if width > 6:
        digits[:, : width - 6][serials[:, None] < 10 ** np.arange(width - 1, 5, -1)] = 0
    return digits


def _mint_serials(cols: RecordColumns, counters: np.ndarray) -> np.ndarray:
    """Fresh id serials per (site, kind) in canonical row order, counters carried.

    Matches ``canonicalize_records``: within the sorted bucket, rows of a
    (site, kind) pair take consecutive serials in row order.  Cohort
    records never share a resource id across spans (each span minted its
    own id), so first-appearance order degenerates to row order.
    ``counters[site * len(KIND_NAMES) + kind]`` is the pair's last serial.
    """
    pair = cols.site * len(KIND_NAMES) + cols.kind  # int8: a radix sort
    order = np.argsort(pair, kind="stable")
    counts = np.bincount(pair, minlength=len(counters))
    first = np.cumsum(counts) - counts  # each pair's first place in ``order``
    serials = np.empty(len(pair), dtype=np.int64)
    serials[order] = np.arange(1, len(pair) + 1) + np.repeat(counters - first, counts)
    counters += counts
    return serials
