"""Pin the reference outputs the benchmark checks against.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/pin.py                       # seeds 0-19 and each default
    python3 perfbench/pin.py --workload storm-sweep --seeds 0,11

Each seed's round runs at the full and the tiny size.  A seed is pinned
only if its round passes every check that needs no reference, so a
pinned seed is one on which no operation fails.  Results merge into
``perfbench/references.json``; a seed already there must reproduce its
entry, so delete an entry to re-pin it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import REFERENCES, WORKLOADS  # noqa: E402

#: Workloads whose reference is pinned.  semester's is computed per seed by
#: the columnar engine.
PINNED = ("cohort-columnar", "serving-flash", "storm-sweep")


def pin_round(name: str, seed: int, *, tiny: bool) -> dict:
    wl = WORKLOADS[name](seed, tiny=tiny, plant=False)
    wl.setup()
    summaries = [wl.summarize(op, wl.run(op)) for op in wl.ops]
    problems = [p for op, s in zip(wl.ops, summaries) for p in wl.check(op, s)]
    problems += [p for ps in wl.check_round(summaries) for p in ps]
    if problems:
        raise SystemExit(f"{name} seed {seed}: not pinned, checks fail: {problems}")
    extra = {key: summaries[0][key] for key in wl.pin_keys}
    return {"digests": [s["digest"] for s in summaries], **extra}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=PINNED, action="append")
    p.add_argument("--seeds", help="comma-separated seeds (default: 0-19 and the default seed)")
    args = p.parse_args()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in args.workload or PINNED:
        seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
                 else sorted(set(range(20)) | {WORKLOADS[name].default_seed}))
        for size in ("full", "tiny"):
            table = refs.setdefault(f"{name}@{size}", {})
            for seed in seeds:
                table[str(seed)] = pin_round(name, seed, tiny=size == "tiny")
                print(f"{name}@{size} seed {seed}: {table[str(seed)]['digests'][0][:16]}...",
                      flush=True)
                REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
