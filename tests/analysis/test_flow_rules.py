"""Fixture-corpus tests for the whole-program rule pack (DESIGN §10)."""

from pathlib import Path

from repro.analysis.engine import analyze_paths, analyze_program

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def run_rule(case: str, rule_id: str):
    result = analyze_paths([FIXTURES / case], whole_program=True, rules=[rule_id])
    return result


class TestPUR001:
    def test_fires_on_reachable_impurity(self):
        result = run_rule("pur001_pos", "PUR001")
        assert len(result.findings) == 2
        assert all(f.rule_id == "PUR001" for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "default_rng" in messages
        assert "module global" in messages
        # every finding carries a witness chain back to the entry point
        assert all("_execute_batch" in f.message for f in result.findings)

    def test_quiet_when_rng_flows_in_and_impure_code_is_unreachable(self):
        result = run_rule("pur001_neg", "PUR001")
        assert result.findings == []


class TestColumnarEntryPoint:
    """The columnar kernel is a shard-execution entry point (DESIGN §11):
    ``repro.columnar.kernels.emit_records`` must be transitively pure, and
    ``repro.columnar.planner`` roots the seed tree from the config's seed."""

    def test_fires_on_rng_and_wall_clock_reachable_from_emit_records(self):
        result = run_rule("columnar_pos", "PUR001")
        assert len(result.findings) == 2
        assert all(f.rule_id == "PUR001" for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "default_rng" in messages
        assert all("emit_records" in f.message for f in result.findings)

    def test_quiet_on_pure_kernels_and_plan_time_planner(self):
        result = analyze_paths(
            [FIXTURES / "columnar_neg"],
            whole_program=True,
            rules=["PUR001", "SEED001"],
        )
        assert result.findings == []


class TestResilienceEntryPoint:
    """The closed-loop runtime lives inside ``simulate_traffic``'s purity
    boundary (DESIGN §12): its hooks must consume plan-time draws, never
    make their own, while ``repro.resilience.clients`` roots the seed tree
    from a seed it is handed."""

    def test_fires_on_rng_and_clock_in_runtime_hooks(self):
        result = run_rule("resilience_pos", "PUR001")
        assert len(result.findings) == 2
        assert all(f.rule_id == "PUR001" for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "default_rng" in messages
        assert all("simulate_traffic" in f.message for f in result.findings)

    def test_quiet_on_pure_runtime_and_plan_time_clients(self):
        result = analyze_paths(
            [FIXTURES / "resilience_neg"],
            whole_program=True,
            rules=["PUR001", "SEED001"],
        )
        assert result.findings == []


class TestSweepEntryPoint:
    """The phase-map sweep's execute half is a shard entry point (DESIGN
    §13): ``repro.resilience.sweep._simulate_point`` must be transitively
    pure — a driver that re-jitters retries or stamps the clock per point
    would make the phase map worker-count-dependent."""

    def test_fires_on_rng_and_clock_in_naive_point_runner(self):
        result = run_rule("sweep_pos", "PUR001")
        assert len(result.findings) == 2
        assert all(f.rule_id == "PUR001" for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "default_rng" in messages
        assert all("_simulate_point" in f.message for f in result.findings)

    def test_quiet_on_plan_execute_split(self):
        result = analyze_paths(
            [FIXTURES / "sweep_neg"],
            whole_program=True,
            rules=["PUR001", "SEED001"],
        )
        assert result.findings == []


class TestSEED001:
    def test_fires_on_literal_and_module_constant_seeds(self):
        """Three in ``mergex.py`` and one in ``repro/columnar/planner.py``:
        no module, not even a planner, may seed from a literal."""
        result = run_rule("seed001_pos", "SEED001")
        assert len(result.findings) == 4
        assert all(f.rule_id == "SEED001" for f in result.findings)
        sites = {(Path(f.file).name, f.line) for f in result.findings}
        assert len(sites) == 4
        assert sum(name == "planner.py" for name, _ in sites) == 1

    def test_quiet_on_parameter_spawn_and_plan_time_seeds(self):
        result = run_rule("seed001_neg", "SEED001")
        assert result.findings == []


class TestRES004:
    def test_fires_on_early_return_and_exception_leak_paths(self):
        result = run_rule("res004_pos", "RES004")
        assert len(result.findings) == 2
        assert all(f.rule_id == "RES004" for f in result.findings)
        assert all("without closing this span" in f.message for f in result.findings)

    def test_quiet_when_every_path_closes(self):
        result = run_rule("res004_neg", "RES004")
        assert result.findings == []


class TestDET004:
    def test_fires_on_unordered_flow_into_digest_and_json(self):
        result = run_rule("det004_pos", "DET004")
        assert len(result.findings) == 2
        assert all(f.rule_id == "DET004" for f in result.findings)
        messages = " | ".join(f.message for f in result.findings)
        assert "digest" in messages or "update" in messages
        assert "json" in messages

    def test_quiet_when_sorted_at_the_source(self):
        result = run_rule("det004_neg", "DET004")
        assert result.findings == []


def _real_sources() -> dict[str, str]:
    return {
        str(p.relative_to(REPO_SRC.parent)): p.read_text()
        for p in sorted(REPO_SRC.rglob("*.py"))
        if "__pycache__" not in p.parts
    }


class TestPlantedViolation:
    """The acceptance test: a deliberately planted PUR001 violation in the
    real codebase — RNG construction inside a shard-reachable helper — must
    be caught by the analyzer."""

    def test_planted_rng_in_shard_path_is_caught(self):
        sources = _real_sources()
        target = "src/repro/core/cohort.py"
        assert target in sources
        sources[target] += (
            "\n\n"
            "def _planted_rng_helper():\n"
            "    return np.random.default_rng(1234)\n"
            "\n\n"
            "def execute_shard(shard, testbed, *, semester_hours, config):\n"
            "    _planted_rng_helper()\n"
        )
        active, _waived = analyze_program(sources, rules=["PUR001"])
        planted = [f for f in active if "_planted_rng_helper" in f.message]
        assert planted, [f.message for f in active]
        assert planted[0].rule_id == "PUR001"
        assert planted[0].file == target
        assert "execute_shard" in planted[0].message

    def test_unplanted_repo_is_clean(self):
        active, _waived = analyze_program(_real_sources(), rules=["PUR001"])
        assert active == []


class TestSuppression:
    def test_inline_noqa_waives_a_whole_program_finding(self, tmp_path):
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "mergex.py").write_text(
            "import numpy as np\n"
            "\n"
            "def seeded():\n"
            "    return np.random.default_rng(7)"
            "  # repro: noqa SEED001 (fixture: frozen replay seed)\n"
        )
        result = analyze_paths([tmp_path], whole_program=True, rules=["SEED001"])
        assert result.findings == []
        assert len(result.suppressed) == 1
        assert result.suppressed[0].finding.rule_id == "SEED001"
        assert "frozen replay seed" in result.suppressed[0].reason
