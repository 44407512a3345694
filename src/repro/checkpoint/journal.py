"""The write-ahead shard journal: crash-safe, self-verifying segments.

One journal = one directory of append-only segment files.  Each segment
holds the pickled payload of one arrival (a batch of
:class:`~repro.parallel.engine.ShardResult`\\ s), framed so that *any*
on-disk damage is detected at load time instead of silently becoming
wrong simulation output:

``RJRNL1\\n`` magic · 4-byte big-endian header length · JSON header
(``segment`` index, covered ``shards``, ``payload_len``,
``payload_sha256``) · payload bytes.

Two invariants make the journal crash-consistent:

* **Atomic visibility.**  A segment is written to a dot-prefixed temp
  file in the same directory, then published with ``os.replace`` (plus
  file and directory fsyncs when the journal is opened ``durable=True``,
  extending the guarantee from process death to power loss).  A crash at
  any instant leaves either no segment or a complete one — never a
  half-written file under the real name.  This temp-file + ``os.replace``
  discipline is what the analysis rule RES003 enforces on every *other*
  persistence writer in the repo.
* **Verified load.**  A segment whose magic, header, byte count, or
  payload sha256 does not check out — a torn write from a filesystem
  that lied about durability, a bit flip, a truncation — is *quarantined*
  (renamed with a ``.quarantined`` suffix, with the reason recorded),
  never loaded.  The supervisor simply re-executes the shards the bad
  segment claimed to cover, so corruption costs recomputation, not
  correctness.

The journal knows nothing about shard semantics: payloads are opaque
pickled objects, shard ids are header metadata.  Journals are local,
trusted state (same trust domain as the process writing them); they are
keyed to their inputs by :class:`repro.checkpoint.manifest.RunManifest`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.common.errors import ValidationError

MAGIC = b"RJRNL1\n"
_HEADER_LEN_BYTES = 4
_SEGMENT_SUFFIX = ".seg"
_QUARANTINE_SUFFIX = ".quarantined"
#: Pinned so journals written by one interpreter load under another.
_PICKLE_PROTOCOL = 5


@dataclass(frozen=True)
class SegmentRecord:
    """One verified segment's metadata (the frame header, trusted after load)."""

    index: int
    path: str
    shard_ids: tuple[str, ...]
    payload_len: int


@dataclass(frozen=True)
class QuarantinedSegment:
    """One segment that failed verification and was set aside."""

    path: str
    reason: str


@dataclass(frozen=True)
class JournalLoad:
    """Everything a load pass found: good entries and quarantined files."""

    entries: tuple[tuple[SegmentRecord, object], ...]
    quarantined: tuple[QuarantinedSegment, ...]

    @property
    def shard_ids(self) -> tuple[str, ...]:
        out: list[str] = []
        for record, _ in self.entries:
            out.extend(record.shard_ids)
        return tuple(out)


def _frame(index: int, shard_ids: Sequence[str], payload: bytes) -> bytes:
    header = json.dumps(
        {
            "segment": index,
            "shards": list(shard_ids),
            "payload_len": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
    ).encode()
    return b"".join(
        [MAGIC, len(header).to_bytes(_HEADER_LEN_BYTES, "big"), header, payload]
    )


def fsync_dir(path: Path) -> None:
    """Flush directory metadata so a just-replaced name survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: best effort
    try:
        os.fsync(fd)
    except OSError:
        pass  # e.g. directories not fsyncable on this filesystem
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes, *, durable: bool = True) -> None:
    """Temp-file + ``os.replace``: the one sanctioned publish path.

    ``os.replace`` alone is atomic against *process* death (the kernel's
    page cache survives a SIGKILL), which is the journal's crash model;
    ``durable=True`` adds fsyncs of the file and its directory so the
    publish also survives *power loss*.  Either way a reader can never
    observe a half-written file under the real name.
    """
    tmp = path.parent / f".{path.name}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if durable:
        fsync_dir(path.parent)


class ShardJournal:
    """Append-only journal of verified segments under one directory.

    ``durable=False`` (the default) publishes segments with atomic
    ``os.replace`` but no fsync: safe against every process-death crash
    the kill matrix injects (and against torn writes, via the frame
    checks), and cheap enough to stay inside the engine's <=5% journaling
    overhead budget.  ``durable=True`` adds per-segment fsyncs for
    power-loss durability; a segment lost to an un-fsynced power cut
    costs re-execution of its shards, never a wrong merge.

    Only writing creates the directory (the first :meth:`append`), so a
    journal opened to be read at a mistyped path raises instead of
    reporting a healthy empty journal.
    """

    def __init__(self, root: str | os.PathLike[str], *, durable: bool = False) -> None:
        self.root = Path(root)
        self.durable = durable
        self._next_index = self._scan_next_index() if self.root.is_dir() else 0

    def _require_root(self) -> None:
        if not self.root.is_dir():
            raise ValidationError(f"no journal directory at {self.root}")

    # -- naming ------------------------------------------------------------

    @staticmethod
    def _segment_name(index: int) -> str:
        return f"segment-{index:06d}{_SEGMENT_SUFFIX}"

    def _scan_next_index(self) -> int:
        highest = -1
        for path in self.root.iterdir():
            name = path.name
            if name.endswith(_QUARANTINE_SUFFIX):
                name = name[: -len(_QUARANTINE_SUFFIX)]
            if not (name.startswith("segment-") and name.endswith(_SEGMENT_SUFFIX)):
                continue
            digits = name[len("segment-") : -len(_SEGMENT_SUFFIX)]
            if digits.isdigit():
                highest = max(highest, int(digits))
        return highest + 1

    def segment_paths(self) -> list[Path]:
        return sorted(
            p
            for p in self.root.iterdir()
            if p.name.startswith("segment-") and p.name.endswith(_SEGMENT_SUFFIX)
        )

    def quarantined_paths(self) -> list[Path]:
        return sorted(p for p in self.root.iterdir() if p.name.endswith(_QUARANTINE_SUFFIX))

    # -- writing -----------------------------------------------------------

    def append(self, shard_ids: Iterable[str], payload_obj: object) -> SegmentRecord:
        """Durably publish one segment covering ``shard_ids``."""
        ids = tuple(shard_ids)
        if not ids:
            raise ValidationError("a journal segment must cover at least one shard")
        index = self._next_index
        payload = pickle.dumps(payload_obj, protocol=_PICKLE_PROTOCOL)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / self._segment_name(index)
        atomic_write_bytes(path, _frame(index, ids, payload), durable=self.durable)
        self._next_index = index + 1
        return SegmentRecord(
            index=index, path=str(path), shard_ids=ids, payload_len=len(payload)
        )

    # -- verified load -----------------------------------------------------

    @staticmethod
    def _verify_frame(data: bytes) -> tuple[dict[str, object], bytes]:
        """Parse one frame or raise ``ValidationError`` describing the damage."""
        if len(data) < len(MAGIC) + _HEADER_LEN_BYTES:
            raise ValidationError(f"segment shorter than the frame preamble ({len(data)} bytes)")
        if data[: len(MAGIC)] != MAGIC:
            raise ValidationError("bad magic: not a journal segment (or preamble corrupted)")
        offset = len(MAGIC)
        header_len = int.from_bytes(data[offset : offset + _HEADER_LEN_BYTES], "big")
        offset += _HEADER_LEN_BYTES
        if len(data) < offset + header_len:
            raise ValidationError(
                f"truncated inside the header: need {header_len} header bytes, "
                f"have {len(data) - offset}"
            )
        try:
            header = json.loads(data[offset : offset + header_len].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"header is not valid JSON: {exc}") from None
        payload = data[offset + header_len :]
        declared = header.get("payload_len")
        if declared != len(payload):
            raise ValidationError(
                f"payload length mismatch: header declares {declared}, found {len(payload)}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise ValidationError(
                f"payload sha256 mismatch: header declares "
                f"{header.get('payload_sha256')}, content hashes to {digest}"
            )
        return header, payload

    def _quarantine(self, path: Path, reason: str) -> QuarantinedSegment:
        target = path.parent / (path.name + _QUARANTINE_SUFFIX)
        os.replace(path, target)
        fsync_dir(path.parent)
        return QuarantinedSegment(path=str(target), reason=reason)

    def load(self) -> JournalLoad:
        """Load every verifiable segment; quarantine everything else."""
        self._require_root()
        entries: list[tuple[SegmentRecord, object]] = []
        quarantined: list[QuarantinedSegment] = []
        for path in self.segment_paths():
            data = path.read_bytes()
            try:
                header, payload = self._verify_frame(data)
                payload_obj = pickle.loads(payload)
            except ValidationError as exc:
                quarantined.append(self._quarantine(path, str(exc)))
                continue
            except Exception as exc:  # unpicklable payload despite a good sha
                quarantined.append(self._quarantine(path, f"payload unpickle failed: {exc!r}"))
                continue
            entries.append(
                (
                    SegmentRecord(
                        index=int(header["segment"]),  # type: ignore[arg-type]
                        path=str(path),
                        shard_ids=tuple(header["shards"]),  # type: ignore[arg-type]
                        payload_len=len(payload),
                    ),
                    payload_obj,
                )
            )
        # a quarantine pass may have freed low indices; never reuse them
        self._next_index = max(self._next_index, self._scan_next_index())
        return JournalLoad(entries=tuple(entries), quarantined=tuple(quarantined))

    # -- health ------------------------------------------------------------

    def health(self) -> dict[str, object]:
        """Non-destructive journal health report (verifies without quarantining)."""
        self._require_root()
        segments: list[dict[str, object]] = []
        damaged: list[dict[str, object]] = []
        shard_ids: list[str] = []
        total_bytes = 0
        for path in self.segment_paths():
            data = path.read_bytes()
            total_bytes += len(data)
            try:
                header, payload = self._verify_frame(data)
            except ValidationError as exc:
                damaged.append({"path": str(path), "reason": str(exc)})
                continue
            shard_ids.extend(header["shards"])  # type: ignore[arg-type]
            segments.append(
                {
                    "path": str(path),
                    "segment": header["segment"],
                    "shards": len(header["shards"]),  # type: ignore[arg-type]
                    "payload_len": len(payload),
                }
            )
        return {
            "root": str(self.root),
            "segments_ok": len(segments),
            "segments_damaged": len(damaged),
            "segments_quarantined": len(self.quarantined_paths()),
            "shards_covered": len(set(shard_ids)),
            "bytes": total_bytes,
            "segments": segments,
            "damaged": damaged,
            "quarantined": [str(p) for p in self.quarantined_paths()],
        }
