"""CLI: check every engine's digest contract; print the engine × check matrix.

Examples
--------
Every gate on the CI-sized inputs::

    python -m repro.verify --quick

One gate on the full-size inputs EXPERIMENTS.md documents, as JSON::

    python -m repro.verify columnar --json -

Each gate (:mod:`repro.verify.gates`) gets every check its engine has
an input for:

* ``rerun``: a second run reproduces the first digest;
* ``perturb``: flipped evaluation orders reproduce it;
* ``workers``: 2 and 4 worker processes reproduce the 1-worker digest;
* ``fault plan``: a non-null plan changes the digest, and the faulted
  digest is worker-count invariant (``always`` where every run is
  already faulted);
* ``oracle``: an independent engine lands on the same digest, with and
  without the fault plan;
* ``crash-resume``: every kill-matrix case resumes to the serial digest.

``–`` marks a check the engine has no input for (DESIGN §14 says why).
Exit status: 0 when every check passes, 1 when any fails (each failure
is named ``gate:check`` on stderr), 2 for an unknown gate.  The seconds
per check are wall-clock, read here and nowhere else in ``src/``; they
are reported, never digested.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Callable

from repro.verify.gates import GATES, Gate

CHECKS = ("rerun", "perturb", "workers", "fault plan", "oracle", "crash-resume")
#: Worker counts checked against the 1-worker digest.
WORKERS = (2, 4)
_MARKS = {"pass": "✓", "fail": "✗", "n/a": "–", "always": "always"}


def _timed(fn: Callable[[], object]) -> tuple[object, float]:
    t0 = time.perf_counter()  # repro: noqa DET001 (check seconds are reported, never digested)
    out = fn()
    return out, round(time.perf_counter() - t0, 3)  # repro: noqa DET001 (check seconds are reported, never digested)


def _mismatches(digests: dict[str, str], expected: str) -> list[str]:
    return [
        f"{label} {digest[:12]} != {expected[:12]}"
        for label, digest in digests.items()
        if digest != expected
    ]


def _checks(gate: Gate, quick: bool, base: str) -> dict[str, Callable[[], list[str]]]:
    """The checks ``gate`` supports, each a thunk returning its mismatches."""
    run = functools.partial(gate.run, quick)
    faulted = functools.cache(lambda: run(faulted=True))
    fanout = WORKERS if gate.workers else ()

    def fault_plan() -> list[str]:
        problems = _mismatches(
            {f"faulted workers={w}": run(workers=w, faulted=True) for w in fanout}, faulted()
        )
        if faulted() == base:
            problems.append("the fault plan left the digest unchanged")
        return problems

    def oracle() -> list[str]:
        problems = _mismatches({"oracle": gate.oracle(quick)}, base)
        if gate.faults == "optional":
            problems += _mismatches({"faulted oracle": gate.oracle(quick, faulted=True)}, faulted())
        return problems

    checks: dict[str, Callable[[], list[str]]] = {
        "rerun": lambda: _mismatches({"rerun": run()}, base),
    }
    if gate.perturb:
        checks["perturb"] = lambda: _mismatches({"perturbed": run(perturb=True)}, base)
    if gate.workers:
        checks["workers"] = lambda: _mismatches(
            {f"workers={w}": run(workers=w) for w in fanout}, base
        )
    if gate.faults == "optional":
        checks["fault plan"] = fault_plan
    if gate.oracle is not None:
        checks["oracle"] = oracle
    if gate.resume is not None:
        checks["crash-resume"] = functools.partial(gate.resume, quick)
    return checks


def check_gate(gate: Gate, quick: bool) -> dict[str, object]:
    """Run every check ``gate`` supports; the gate's row of the matrix."""
    base, seconds = _timed(lambda: gate.run(quick))
    thunks = _checks(gate, quick, base)
    cells: dict[str, dict[str, object]] = {}
    for name in CHECKS:
        if name not in thunks:
            always = name == "fault plan" and gate.faults == "always"
            cells[name] = {"status": "always" if always else "n/a"}
            continue
        problems, check_s = _timed(thunks[name])
        cells[name] = {
            "status": "fail" if problems else "pass",
            "seconds": check_s,
            "problems": problems,
        }
    return {"digest": base, "seconds": seconds, "checks": cells}


def _row(label: str, cells: list[str], digest: str) -> str:
    return f"{label:<10}" + "".join(f"{c:<14}" for c in cells) + digest


def _render(name: str, row: dict[str, object]) -> str:
    cells = []
    for cell in row["checks"].values():
        mark = _MARKS[cell["status"]]
        cells.append(f"{mark} {cell['seconds']:.1f}s" if "seconds" in cell else mark)
    return _row(name, cells, f"{row['digest'][:16]}  ({row['seconds']:.1f}s)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Check every engine's digest contract: rerun, perturbed "
        "evaluation order, worker count, fault plan, independent oracle, "
        "crash-resume.",
    )
    parser.add_argument(
        "gates", nargs="*", metavar="GATE",
        help=f"gates to check (default: all of {', '.join(GATES)})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="the CI-sized inputs instead of the full ones"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the matrix as JSON to PATH ('-' for stdout)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.gates if name not in GATES]
    if unknown:
        parser.error(f"unknown gate {', '.join(unknown)} (choose from {', '.join(GATES)})")
    text = args.json != "-"
    if text:
        print(_row("gate", list(CHECKS), "digest"), flush=True)

    names = args.gates or list(GATES)
    report: dict[str, dict[str, object]] = {}
    for name in names:
        report[name] = check_gate(GATES[name], args.quick)
        if text:
            print(_render(name, report[name]), flush=True)

    failures = [
        (f"{name}:{check}", report[name]["checks"][check]["problems"])
        for name in names
        for check in CHECKS
        if report[name]["checks"][check]["status"] == "fail"
    ]
    payload = {"quick": args.quick, "ok": not failures, "gates": report}
    if not text:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"json: {args.json}")
    for label, problems in failures:
        print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
