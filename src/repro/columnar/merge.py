"""Canonical merge over record columns: sort, mint ids, digest — bucketed.

The object path canonicalizes by sorting the complete record list under
:func:`repro.core.usage.canonical_sort_key` and re-minting resource ids
with per-(site, prefix) counters in first-appearance order.  This module
produces the byte-identical stream from column batches without ever
holding all records sorted at once:

* **Bucketing.** `start` is the primary sort key, so partitioning rows
  by fixed start-time edges (``searchsorted`` — equal starts always land
  in the same bucket) splits the global sort into independent per-bucket
  sorts whose concatenation *is* the global order.  Peak memory is the
  largest bucket, not the cohort.
* **Per-bucket order.** ``np.lexsort`` over (quantity, lab, user-rank,
  rtype, kind, site, end, start) — every vocabulary is rank-encoded
  (codes sort like the strings; see :mod:`repro.columnar.schema`), and
  user codes go through the schema's explicit rank table because user
  strings do NOT sort like user indices ("student1000" < "student999").
  Key ties are only possible between fully identical records (the key
  covers every content field), so tie order cannot change the stream.
* **Id minting.** (site, kind) determines the id prefix, so per-pair
  counters advance by row order within each bucket and carry across
  buckets — exactly the first-appearance order of the serial
  canonicalizer.
* **Digest.** SHA-256 over ``repr(astuple(record))`` per row — the
  definition :func:`repro.core.report.records_digest` applies to the
  object path — built column-wise instead of per row.  A tuple's repr is
  ``"(" + ", ".join(map(repr, fields)) + ")"`` and hashing a
  concatenation equals streaming its parts, so finalize formats each
  distinct value once: one ``repr`` per vocabulary code (kind, rtype,
  user, lab, site), one per distinct 64-bit float pattern in a slice (by
  pattern, not value: ``-0.0 == 0.0`` but their reprs differ; the reprs
  are Python-float reprs, as ``.tolist()`` would give), one per minted
  id.  It interleaves the pieces row-major and hashes each slice of
  :data:`DIGEST_SLICE_ROWS` sorted rows with one ``update``.
* **Totals.** ``quantity * (end - start)`` per row, summed with
  :func:`repro.common.numerics.stable_sum` over the whole multiset —
  exactly equal to ``total_unit_hours`` over the materialized records,
  independent of bucketing.

``spill_dir`` bounds memory further for huge cohorts: full buckets are
flushed to ``.npz`` scratch files and reloaded one bucket at a time
during finalize.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

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

#: Rows per digest slice: finalize formats and hashes a sorted bucket this
#: many rows at a time, so its per-column text lists stay bounded however
#: large a bucket grows.
DIGEST_SLICE_ROWS = 65_536


@dataclass(frozen=True)
class MergeResult:
    """What the canonical merge hands back."""

    count: int
    unit_hours: float
    digest: str | None
    records: list[UsageRecord] | None


class CanonicalMerger:
    """Streaming canonicalizer: feed column batches, finalize once.

    ``n_buckets`` trades peak memory against per-bucket overhead;
    correctness is independent of it (tests sweep it).
    """

    def __init__(
        self,
        schema: ColumnSchema,
        semester_hours: float,
        *,
        n_buckets: int = 64,
        spill_dir: str | Path | None = None,
        spill_rows: int = 4_000_000,
    ) -> None:
        if n_buckets < 1:
            raise ValidationError(f"n_buckets must be positive: {n_buckets!r}")
        self._schema = schema
        # interior edges over [0, H]; starts may exceed H (zero-duration
        # semester-end rows land in the last bucket regardless)
        self._edges = np.linspace(0.0, semester_hours, n_buckets + 1)[1:-1]
        self._n_buckets = n_buckets
        self._chunks: list[list[RecordColumns]] = [[] for _ in range(n_buckets)]
        self._mem_rows = [0] * n_buckets
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._spill_rows = spill_rows
        self._spilled: list[list[Path]] = [[] for _ in range(n_buckets)]
        self._spill_seq = 0
        self._finalized = False

    def add(self, batch: RecordColumns) -> None:
        """Route one column batch into its start-time buckets."""
        if self._finalized:
            raise ValidationError("merger already finalized")
        if not len(batch):
            return
        bucket = np.searchsorted(self._edges, batch.start, side="right")
        for b in np.unique(bucket):
            sel = np.flatnonzero(bucket == b)
            self._chunks[b].append(batch.take(sel))
            self._mem_rows[b] += len(sel)
            if self._spill_dir is not None and self._mem_rows[b] >= self._spill_rows:
                self._flush(int(b))

    def _flush(self, b: int) -> None:
        cols = RecordColumns.concat(self._chunks[b])
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"bucket{b:04d}-{self._spill_seq:04d}.npz"
        self._spill_seq += 1
        np.savez(
            path,
            start=cols.start, end=cols.end, quantity=cols.quantity,
            kind=cols.kind, rtype=cols.rtype, site=cols.site,
            user=cols.user, lab=cols.lab,
        )
        self._spilled[b].append(path)
        self._chunks[b] = []
        self._mem_rows[b] = 0

    def _load_bucket(self, b: int) -> RecordColumns:
        parts = []
        for path in self._spilled[b]:
            with np.load(path) as z:
                parts.append(
                    RecordColumns(
                        start=z["start"], end=z["end"], quantity=z["quantity"],
                        kind=z["kind"], rtype=z["rtype"], site=z["site"],
                        user=z["user"], lab=z["lab"],
                    )
                )
            path.unlink()
        parts.extend(self._chunks[b])
        self._chunks[b] = []
        return RecordColumns.concat(parts)

    def finalize(
        self, *, digest: bool = True, collect_records: bool = False
    ) -> MergeResult:
        """Sort each bucket, mint ids across buckets, stream the digest."""
        if self._finalized:
            raise ValidationError("merger already finalized")
        self._finalized = True
        schema = self._schema
        sha = hashlib.sha256() if digest else None
        counters: dict[tuple[int, int], int] = {}  # (site, kind) -> last serial
        unit_parts: list[np.ndarray] = []
        records: list[UsageRecord] | None = [] if collect_records else None
        user_strings = _user_string_table(schema) if (digest or collect_records) else None
        reprs = _ReprTables(schema, user_strings) if digest else None
        count = 0
        for b in range(self._n_buckets):
            cols = self._load_bucket(b)
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
                # counters still advance so later buckets stay aligned
                for s, k, m in _site_kind_runs(cols):
                    counters[(s, k)] = counters.get((s, k), 0) + m
                continue
            ids = _mint_ids(cols, counters)
            if sha is not None:
                for lo in range(0, n, DIGEST_SLICE_ROWS):
                    part = slice(lo, lo + DIGEST_SLICE_ROWS)
                    sha.update(reprs.rows(cols, ids, part).encode())
            if records is not None:
                kind_names = np.take(np.array(KIND_NAMES, dtype=object), cols.kind)
                rtype_names = np.take(np.array(schema.rtype_names, dtype=object), cols.rtype)
                site_names = np.take(np.array(SITE_NAMES, dtype=object), cols.site)
                lab_names = np.take(np.array(schema.lab_names, dtype=object), cols.lab)
                users = np.take(user_strings, cols.user)
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


def _user_string_table(schema: ColumnSchema) -> np.ndarray:
    from repro.columnar.schema import group_user, student_user

    return np.array(
        [student_user(i) for i in range(schema.n_students)]
        + [group_user(j) for j in range(schema.n_groups)],
        dtype=object,
    )


class _ReprTables:
    """The digest's text, built column-wise (see the module docstring).

    Each piece is one field's ``repr`` with the separator that follows it
    in the tuple's repr, so a slice's text is the row-major interleave of
    its columns' pieces.  Adjacent code fields share one table: kind with
    rtype (and the constant project), lab with site.
    """

    def __init__(self, schema: ColumnSchema, user_strings: np.ndarray) -> None:
        self._n_rtypes = len(schema.rtype_names)
        self._kind_rtype = np.array(
            [
                f"{kind!r}, {rtype!r}, {'course'!r}, "
                for kind in KIND_NAMES
                for rtype in schema.rtype_names
            ],
            dtype=object,
        )
        self._user = np.array([f"{user!r}, " for user in user_strings], dtype=object)
        self._lab_site = np.array(
            [f"{lab!r}, {site!r})" for lab in schema.lab_names for site in SITE_NAMES],
            dtype=object,
        )

    def rows(self, cols: RecordColumns, ids: np.ndarray, part: slice) -> str:
        """The concatenated ``repr(tuple)`` text of rows ``part``."""
        kind_rtype = cols.kind[part].astype(np.int64) * self._n_rtypes + cols.rtype[part]
        lab_site = cols.lab[part].astype(np.int64) * len(SITE_NAMES) + cols.site[part]
        pieces = zip(
            [f"({rid!r}, " for rid in ids[part].tolist()],
            np.take(self._kind_rtype, kind_rtype).tolist(),
            _float_pieces(cols.start[part]),
            _float_pieces(cols.end[part]),
            _float_pieces(cols.quantity[part]),
            np.take(self._user, cols.user[part]).tolist(),
            np.take(self._lab_site, lab_site).tolist(),
        )
        return "".join(chain.from_iterable(pieces))


def _float_pieces(col: np.ndarray) -> list[str]:
    """``repr(x) + ", "`` per row, formatted once per distinct bit pattern."""
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    table = np.array([f"{x!r}, " for x in bits.view(np.float64).tolist()], dtype=object)
    return np.take(table, inverse).tolist()


def _site_kind_runs(cols: RecordColumns):
    """Yield (site, kind, row_count) for every pair present in the batch."""
    pair = cols.site.astype(np.int64) * len(KIND_NAMES) + cols.kind
    for p in np.unique(pair):
        yield int(p) // len(KIND_NAMES), int(p) % len(KIND_NAMES), int((pair == p).sum())


def _mint_ids(cols: RecordColumns, counters: dict[tuple[int, int], int]) -> np.ndarray:
    """Fresh ids per (site, prefix) in canonical row order, counters carried.

    Matches ``canonicalize_records``: within the sorted bucket, rows of a
    (site, kind) pair take consecutive serials in row order; ids are
    ``{prefix}-{serial:06d}``.  Cohort records never share a resource id
    across spans (each span minted its own id), so first-appearance order
    degenerates to row order.
    """
    pair = cols.site.astype(np.int64) * len(KIND_NAMES) + cols.kind
    ids = np.empty(len(cols), dtype=object)
    for p in np.unique(pair):
        site_code, kind_code = int(p) // len(KIND_NAMES), int(p) % len(KIND_NAMES)
        idx = np.flatnonzero(pair == p)
        base = counters.get((site_code, kind_code), 0)
        counters[(site_code, kind_code)] = base + len(idx)
        prefix = KIND_PREFIXES[kind_code]
        serials = np.char.zfill(
            (base + 1 + np.arange(len(idx), dtype=np.int64)).astype("U12"), 6
        )
        ids[idx] = np.char.add(f"{prefix}-", serials).astype(object)
    return ids
