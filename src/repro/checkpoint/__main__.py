"""CLI: inspect and resume crash-safe cohort journals.

The crash-recovery contract itself (the kill matrix) is the
``crash-resume`` check of ``python -m repro.verify parallel``.

Examples
--------
Health-check an existing journal directory::

    python -m repro.checkpoint --inspect --journal runs/seed42

Resume (or start) a journaled run and print recovery telemetry::

    python -m repro.checkpoint --resume --journal runs/seed42 --workers 4
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from repro.checkpoint.journal import ShardJournal
from repro.checkpoint.manifest import RunManifest
from repro.common.errors import ValidationError
from repro.core.cohort import CohortConfig
from repro.core.course import COURSE, scaled_course
from repro.core.report import records_digest
from repro.parallel.engine import run_parallel_supervised

#: The ``--resume`` flags ``--inspect`` refuses, with their resume defaults.
RESUME_DEFAULTS = {"seed": 42, "scale": 0.25, "workers": 2}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checkpoint",
        description="Crash-safe shard journals: journal inspection, resumable runs.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--inspect", action="store_true",
        help="report journal health (segment integrity, manifest) without modifying it",
    )
    mode.add_argument(
        "--resume", action="store_true",
        help="resume (or start) a journaled run against --journal and report telemetry",
    )
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="journal directory (required)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="--resume: cohort seed (default 42)"
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="--resume: cohort scale factor (default 0.25)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="--resume: worker processes (default 2)"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the report as JSON to PATH ('-' for stdout)",
    )
    return parser


def _emit(report: dict[str, object], json_target: str | None) -> None:
    if json_target == "-":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"    {item}")
        else:
            print(f"{key:>22}: {value}")
    if json_target:
        with open(json_target, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"{'json':>22}: {json_target}")


def _inspect(args: argparse.Namespace) -> int:
    journal = ShardJournal(args.journal)
    report = journal.health()
    manifest = RunManifest.load(args.journal)
    report["manifest"] = None if manifest is None else {
        "seed": manifest.seed,
        "cohort_size": manifest.cohort_size,
        "shard_count": manifest.shard_count,
        "course_digest": manifest.course_digest[:16],
        "fault_digest": manifest.fault_digest[:16],
        "plan_digest": manifest.plan_digest[:16],
    }
    _emit(report, args.json)
    return 1 if report["segments_damaged"] else 0


def _resume(args: argparse.Namespace, config: CohortConfig) -> int:
    course = COURSE if args.scale == 1.0 else scaled_course(args.scale)
    records, run = run_parallel_supervised(
        course, config, workers=args.workers, journal_dir=args.journal
    )
    report: dict[str, object] = {
        "journal": args.journal,
        "seed": args.seed,
        "workers": args.workers,
        "records": len(records),
        "digest": records_digest(records),
    }
    report.update({k: int(v) for k, v in asdict(run.telemetry).items()})
    _emit(report, args.json)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.journal:
        print("--inspect/--resume require --journal DIR", file=sys.stderr)
        return 2
    if args.inspect:
        given = [f"--{name}" for name in RESUME_DEFAULTS if getattr(args, name) is not None]
        if given:
            parser.error(f"{', '.join(given)}: resume flags do not apply to --inspect")
        if not os.path.isdir(args.journal):
            parser.error(f"--inspect: no journal directory at {args.journal}")
        return _inspect(args)
    for name, default in RESUME_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1: {args.workers}")
    if not (math.isfinite(args.scale) and args.scale > 0):
        parser.error(f"--scale must be a positive number: {args.scale}")
    try:
        config = CohortConfig(seed=args.seed)
    except ValidationError as err:
        parser.error(str(err))
    return _resume(args, config)


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): not an error here,
        # but Python would print a traceback during interpreter shutdown
        # unless the dangling descriptor is replaced before it is flushed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)
