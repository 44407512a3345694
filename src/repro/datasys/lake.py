"""Data lake and lakehouse tables (Unit 8 lecture content).

The §3.8 lecture's storage taxonomy includes "data lakes, and data
lakehouses".  Two pieces:

* :class:`DataLake` — schema-on-read object storage organised by
  partitioned paths (``zone/dataset/partition=value/file``), with raw /
  curated zones.
* :class:`LakehouseTable` — the lakehouse upgrade: a versioned table over
  the lake with schema enforcement, atomic append/overwrite commits, and
  time-travel reads (``as_of`` a version), the ACID-ish properties that
  distinguish a lakehouse from a pile of files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.common.errors import ConflictError, NotFoundError, ValidationError


class DataLake:
    """Zone/dataset/partition-organised object storage, schema on read."""

    ZONES = ("raw", "curated")

    def __init__(self) -> None:
        self._objects: dict[str, list[dict[str, Any]]] = {}

    @staticmethod
    def _path(zone: str, dataset: str, partition: str | None) -> str:
        if zone not in DataLake.ZONES:
            raise ValidationError(f"unknown zone {zone!r}; use one of {DataLake.ZONES}")
        if not dataset:
            raise ValidationError("dataset name required")
        return f"{zone}/{dataset}" + (f"/{partition}" if partition else "")

    def write(
        self, zone: str, dataset: str, rows: list[dict[str, Any]], *, partition: str | None = None
    ) -> str:
        """Append rows to a path; no schema is enforced (that's the lake)."""
        path = self._path(zone, dataset, partition)
        self._objects.setdefault(path, []).extend(dict(r) for r in rows)
        return path

    def read(
        self, zone: str, dataset: str, *, partition: str | None = None
    ) -> list[dict[str, Any]]:
        """Schema-on-read: rows come back exactly as written (heterogeneous)."""
        if partition is not None:
            path = self._path(zone, dataset, partition)
            try:
                return [dict(r) for r in self._objects[path]]
            except KeyError:
                raise NotFoundError(f"no data at {path!r}") from None
        prefix = self._path(zone, dataset, None)
        rows: list[dict[str, Any]] = []
        for path, objs in sorted(self._objects.items()):
            if path == prefix or path.startswith(prefix + "/"):
                rows.extend(dict(r) for r in objs)
        if not rows:
            raise NotFoundError(f"no data under {prefix!r}")
        return rows

    def partitions(self, zone: str, dataset: str) -> list[str]:
        prefix = self._path(zone, dataset, None) + "/"
        return sorted(p[len(prefix):] for p in self._objects if p.startswith(prefix))

    def promote(
        self,
        dataset: str,
        transform: Callable[[dict[str, Any]], dict[str, Any] | None],
        *,
        partition: str | None = None,
    ) -> int:
        """raw -> curated with a cleansing transform (None filters a row)."""
        raw = self.read("raw", dataset, partition=partition)
        curated = [t for r in raw if (t := transform(r)) is not None]
        self.write("curated", dataset, curated, partition=partition)
        return len(curated)


@dataclass(frozen=True)
class TableVersion:
    """One committed snapshot."""

    version: int
    operation: str  # "append" | "overwrite"
    row_count: int
    parent: int | None


class LakehouseTable:
    """A versioned, schema-enforced table with time travel."""

    def __init__(self, name: str, schema: dict[str, type]) -> None:
        if not schema:
            raise ValidationError("lakehouse table needs a schema")
        self.name = name
        self.schema = dict(schema)
        self._snapshots: list[list[dict[str, Any]]] = [[]]
        self._log: list[TableVersion] = [TableVersion(0, "create", 0, None)]

    @property
    def version(self) -> int:
        return len(self._log) - 1

    def history(self) -> list[TableVersion]:
        return list(self._log)

    def _validate(self, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        checked = []
        for row in rows:
            if set(row) != set(self.schema):
                raise ValidationError(
                    f"row columns {sorted(row)} != schema {sorted(self.schema)}"
                )
            for col, dtype in self.schema.items():
                if row[col] is not None and not isinstance(row[col], dtype):
                    raise ValidationError(
                        f"column {col!r} expects {dtype.__name__}, "
                        f"got {type(row[col]).__name__}"
                    )
            checked.append(dict(row))
        return checked

    def append(self, rows: list[dict[str, Any]], *, expected_version: int | None = None) -> int:
        """Atomic append; optimistic concurrency via ``expected_version``."""
        if expected_version is not None and expected_version != self.version:
            raise ConflictError(
                f"concurrent write: table at v{self.version}, expected v{expected_version}"
            )
        rows = self._validate(rows)
        new_snapshot = [dict(r) for r in self._snapshots[-1]] + rows
        self._snapshots.append(new_snapshot)
        self._log.append(
            TableVersion(self.version + 1, "append", len(new_snapshot), self.version)
        )
        return self.version

    def overwrite(self, rows: list[dict[str, Any]], *, expected_version: int | None = None) -> int:
        if expected_version is not None and expected_version != self.version:
            raise ConflictError(
                f"concurrent write: table at v{self.version}, expected v{expected_version}"
            )
        rows = self._validate(rows)
        self._snapshots.append([dict(r) for r in rows])
        self._log.append(
            TableVersion(self.version + 1, "overwrite", len(rows), self.version)
        )
        return self.version

    def read(self, *, as_of: int | None = None) -> list[dict[str, Any]]:
        """Current rows, or time travel to any committed version."""
        version = self.version if as_of is None else as_of
        if not (0 <= version <= self.version):
            raise NotFoundError(f"no version {version} (table at v{self.version})")
        return [dict(r) for r in self._snapshots[version]]

    def restore(self, version: int) -> int:
        """Roll the table back by committing an old snapshot as the newest."""
        rows = self.read(as_of=version)
        return self.overwrite(rows)
