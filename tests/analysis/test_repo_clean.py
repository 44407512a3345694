"""The acceptance gate, enforced from inside the tier-1 suite: the analyzer
exits clean on the whole repo (src + benchmarks + examples), so a PR that
introduces a determinism or hygiene hazard fails tests even if it forgets
to run the linter.
"""

from pathlib import Path

from repro.analysis import Baseline, analyze_paths

REPO = Path(__file__).resolve().parents[2]


def test_repo_has_no_new_findings():
    baseline = Baseline.load(REPO / "analysis-baseline.json")
    result = analyze_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"], baseline=baseline
    )
    assert result.files_checked > 100
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"new analysis findings:\n{rendered}"


def test_repo_passes_the_whole_program_pass():
    """The flow pack (PUR001/SEED001/RES004/DET004) over the real call
    graph: shard execution is provably pure, every Generator's seed flows
    in, spans close on all CFG paths, no unordered flow reaches a sink."""
    baseline = Baseline.load(REPO / "analysis-baseline.json")
    result = analyze_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"],
        baseline=baseline,
        whole_program=True,
    )
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"new analysis findings:\n{rendered}"
    assert result.stale_baseline == [], "baseline entries no finding consumes"


def test_every_inline_suppression_carries_a_reason():
    """analyze_paths only honours reasoned suppressions; make sure the ones
    in tree are the ones we expect (prevents suppression sprawl)."""
    result = analyze_paths(
        [REPO / "src", REPO / "benchmarks", REPO / "examples"], whole_program=True
    )
    assert all(s.reason for s in result.suppressed)
    # today: seven accepted hazards — the standing object-storage span,
    # the wall-clock timers in the verification harness and the speedup/
    # journal/columnar/sweep benches (all report real elapsed seconds,
    # outside any simulated state), and the metering span rotation that
    # deliberately leaves the replacement span open until the resource's
    # own terminal path closes it
    files = sorted({s.finding.file for s in result.suppressed})
    assert files == [
        str(REPO / "benchmarks" / "bench_checkpoint.py"),
        str(REPO / "benchmarks" / "bench_columnar_cohort.py"),
        str(REPO / "benchmarks" / "bench_parallel_cohort.py"),
        str(REPO / "benchmarks" / "bench_resilience_sweep.py"),
        str(REPO / "src" / "repro" / "cloud" / "metering.py"),
        str(REPO / "src" / "repro" / "cloud" / "storage.py"),
        str(REPO / "src" / "repro" / "verify" / "__main__.py"),
    ]
