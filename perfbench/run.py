"""The repository benchmark: four engines, timed end to end, traced per layer.

Run from the repository root::

    python3 perfbench/run.py --workload semester --seed 0 --seconds 20 --trace 0

``--trace 0`` is the timed run.  It repeats the workload's round of
operations for ``--seconds`` and prints the end-to-end metrics named in
``BENCHMARK.json``:

* ``items_per_ref_s``: completed work per reference second of the timed
  body (see below).  An item is a student (semester, cohort-columnar), an
  offered request (serving-flash) or a sweep point (storm-sweep).  It is
  the sum of the round's items over the sum of each operation's median
  time.  The same figure in plain seconds is printed as ``<unit>_per_s``.
* ``setup_s``: from process start (after the first yardstick reading) to
  inputs ready, i.e. importing the workload's ``repro`` packages and
  building its objects, in reference seconds.  The median over this
  process and two fresh ones.
* ``peak_rss_mb``: peak resident set of this process after the first round.

Reference seconds (see ``yardstick.py``).  The yardstick is read before
every operation and at the end, and each body time is scaled by the mean
of the readings before and after it; set-up is scaled by the readings at
process start and right after set-up.  Plain times and every reading are
kept in the run record.

``--trace 1`` is the traced run.  It runs two rounds untraced and one
round with every layer wrapped (see ``tracing.py``), then prints the
per-layer metrics: self time and call counts per round, counters from the
program's results, incremental import times and the tracing overhead
(traced over second untraced round, in reference seconds, minus 1).

Every operation's output is checked against a reference (see
``workloads.py``).  An operation that raises or fails its check counts
in ``failed``, and the run goes on.  The last line of standard output is
the result as JSON.  A record of the run with the environment (CPU count,
Python and numpy versions, the seed, the yardstick readings) and every
plain and scaled time is written under ``.perfbench-out/``.

``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

import time

from yardstick import REF_S, ref_seconds, yardstick

Y0 = yardstick()
T0 = time.perf_counter()  # process start, before any repro import

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import PACKAGES, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test input sizes")
    p.add_argument("--plant-mismatch", action="store_true",
                   help="self-test hook: check against a wrong reference digest")
    p.add_argument("--setup-only", action="store_true",
                   help="measure set-up in this process, print it and exit")
    return p


def set_up(wl) -> dict[str, float]:
    """Import the workload's packages in order, then build its inputs."""
    imports = dict.fromkeys(PACKAGES, 0.0)
    for name in wl.packages:
        start = time.perf_counter()
        importlib.import_module(f"repro.{name}")
        imports[name] = time.perf_counter() - start
    wl.setup()
    return imports


def run_op(wl, j: int):
    """One operation: (body seconds or None, summary or None, problems)."""
    op = wl.ops[j]
    start = time.perf_counter()
    try:
        output = wl.run(op)
        elapsed = time.perf_counter() - start
        summary = wl.summarize(op, output)
        del output
    except Exception as exc:  # a raising operation is a failed one; the run goes on
        return None, None, [f"{op.label}: {type(exc).__name__}: {exc}"]
    return elapsed, summary, []


def check(wl, j: int, summary) -> list[str]:
    if summary is None:
        return []
    try:
        return wl.check(wl.ops[j], summary)
    except Exception as exc:  # a crashing check fails its operation, not the run
        return [f"{wl.ops[j].label}: check raised {type(exc).__name__}: {exc}"]


def close_round(wl, summaries: list, problems: list[list[str]]) -> None:
    """Apply the round-wide checks once every operation of a round has run."""
    if len(summaries) == len(wl.ops) and all(s is not None for s in summaries):
        for mine, extra in zip(problems, wl.check_round(summaries)):
            mine.extend(extra)


class Tally:
    """Operations attempted and failed, and every problem the checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[list[str]]) -> None:
        for mine in problems:
            self.attempted += 1
            self.failed += bool(mine)
            self.problems.extend(mine)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def throughput(items: list[int], times: list[list[float]]) -> float:
    """The round's items over the sum of each operation's median time."""
    ran = [j for j, ts in enumerate(times) if ts]
    body = sum(statistics.median(times[j]) for j in ran)
    return sum(items[j] for j in ran) / body if body else 0.0


class Timing:
    """Body times of a run's operations, each with the yardstick read before it."""

    def __init__(self, n: int) -> None:
        self.runs: list[tuple[int, float, float]] = []  # (op index, seconds, yardstick)
        self.items = [0] * n
        self.yardstick_end = 0.0

    def run(self, wl, j: int):
        """Run operation ``j``; returns its summary and problems."""
        gc.collect()
        y = yardstick()
        elapsed, summary, problems = run_op(wl, j)
        if elapsed is not None:
            self.runs.append((j, elapsed, y))
            self.items[j] = summary["items"]
        return summary, problems

    def finish(self) -> None:
        gc.collect()
        self.yardstick_end = yardstick()

    @property
    def yardsticks(self) -> list[float]:
        return [y for _, _, y in self.runs] + [self.yardstick_end]

    def seconds(self, *, ref: bool) -> list[list[float]]:
        """Body times per operation, plain or scaled to reference seconds by
        the mean of the yardstick readings before and after each body."""
        ys = self.yardsticks
        out: list[list[float]] = [[] for _ in self.items]
        for k, (j, elapsed, y) in enumerate(self.runs):
            out[j].append(ref_seconds(elapsed, y, ys[k + 1]) if ref else elapsed)
        return out


def timed(wl, seconds: float, tally: Tally) -> tuple[Timing, float]:
    """Repeat the round for ``seconds`` (at least once).

    Returns the timings and the peak RSS at the end of the first round.
    The peak is read after one round because each later repeat can add
    allocator fragmentation, which would tie the peak to how many repeats
    the box's speed allowed.
    """
    n = len(wl.ops)
    timing = Timing(n)
    start = time.perf_counter()
    k = 0
    summaries: list = []
    problems: list[list[str]] = []
    while True:
        j = k % n
        if k >= n:
            done = [(i, t) for i, t, _ in timing.runs]
            seen = [t for i, t in done if i == j] or [t for _, t in done] or [0.0]
            if time.perf_counter() - start + statistics.median(seen) > seconds:
                break
        summary, mine = timing.run(wl, j)
        mine += check(wl, j, summary)
        summaries.append(summary)
        problems.append(mine)
        if j == n - 1:
            close_round(wl, summaries, problems)
            tally.add(problems)
            summaries, problems = [], []
            if k == j:
                first_round_rss = peak_rss_mb()
        k += 1
    tally.add(problems)
    timing.finish()
    return timing, first_round_rss


def one_round(wl, tracer: Tracer | None) -> tuple[float, list, list[list[str]]]:
    """Each operation once: (summed body reference seconds, summaries, problems)."""
    timing = Timing(len(wl.ops))
    summaries, problems = [], []
    for j in range(len(wl.ops)):
        if tracer is not None:
            tracer.set_op(j)
        summary, mine = timing.run(wl, j)
        summaries.append(summary)
        problems.append(mine)
    timing.finish()
    return sum(t for ts in timing.seconds(ref=True) for t in ts), summaries, problems


def traced(wl, imports: dict[str, float], tally: Tally, spans_path: Path) -> dict[str, float]:
    """Two untraced rounds and one traced round; the per-layer values.

    The first round warms lazy imports and the allocator, so the overhead
    compares the traced round with the second.
    """
    rounds = [one_round(wl, None), one_round(wl, None)]
    tracer = Tracer()
    tracer.install()
    wl.span = tracer.span
    try:
        rounds.append(one_round(wl, tracer))
    finally:
        tracer.uninstall()
        del wl.span
    tracer.write(spans_path)
    # checks run untraced, so the reference engines stay out of the spans
    for _, summaries, problems in rounds:
        for j, summary in enumerate(summaries):
            problems[j] += check(wl, j, summary)
        close_round(wl, summaries, problems)
        tally.add(problems)
    untraced_s, traced_s = rounds[1][0], rounds[2][0]

    c = tracer.counters
    values: dict[str, float] = dict(c)
    values.update({
        "columnar.admission.fast_path_share": _ratio(c["columnar.admission.fast_paths"],
                                                     c["columnar.admission.sweeps"]),
        "loadgen.sim.mean_batch": _ratio(c["loadgen.sim.served"], c["loadgen.sim.batches"]),
        "resilience.clients.amplification": _ratio(c["resilience.clients.attempts"],
                                                   c["resilience.clients.offered"]),
        "resilience.clients.goodput_share": _ratio(c["resilience.clients.served"],
                                                   c["resilience.clients.attempts"]),
        "trace.overhead_share": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    })
    values.update({f"setup.import_{name}_s": s for name, s in imports.items()})
    for name, seconds in tracer.self_s.items():
        values[f"{name}.self_s"] = seconds
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def setup_samples(args, first: dict[str, float]) -> list[dict[str, float]]:
    """This process's set-up times plus those of fresh processes."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: nothing to measure, {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny, plant=args.plant_mismatch)
    imports = set_up(wl)
    setup_s = time.perf_counter() - T0
    setup = {"setup_s": setup_s, "setup_ref_s": ref_seconds(setup_s, Y0, yardstick())}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    env = {"workload": args.workload, "seed": args.seed, "size": wl.size,
           "cpu_count": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "yardstick_ref_s": REF_S}
    tally = Tally()
    record: dict = {"env": env}
    if args.trace:
        values = traced(wl, imports, tally, OUT / f"spans-{tag}.jsonl")
        metrics = spec["per_layer"]
        print("per-call self_s values include the wrapper's own cost: read them as upper bounds")
    else:
        timing, rss_mb = timed(wl, args.seconds, tally)
        samples = setup_samples(args, setup)
        plain, ref = timing.seconds(ref=False), timing.seconds(ref=True)
        values = {"items_per_ref_s": throughput(timing.items, ref),
                  "setup_s": statistics.median(s["setup_ref_s"] for s in samples),
                  "peak_rss_mb": rss_mb}
        metrics = spec["end_to_end"]
        env["yardstick_median_s"] = statistics.median(timing.yardsticks)
        record.update(op_seconds={op.label: ts for op, ts in zip(wl.ops, plain)},
                      op_ref_seconds={op.label: ts for op, ts in zip(wl.ops, ref)},
                      yardsticks_s=timing.yardsticks, setup_samples=samples)
        print(f"{wl.unit}_per_s {throughput(timing.items, plain):.6g} {wl.unit}/s "
              f"in plain seconds ({len(timing.runs)} operations, {len(wl.ops)} per round; "
              f"set-up {setup_s:.3f} s)")

    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}
    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0
    for name, metric in result.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_share {failed_share:.6g} fraction ({tally.failed} of {tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    record.update(metrics=result, attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
