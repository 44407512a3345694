"""Engine plumbing: import resolution, module naming, path walking, stats."""

import ast
from pathlib import Path

from repro.analysis import analyze_paths, analyze_source
from repro.analysis.engine import ModuleContext, module_name_for


def ctx_for(source: str) -> ModuleContext:
    return ModuleContext(path="x.py", module="x", source=source, tree=ast.parse(source))


class TestQualifiedNames:
    def test_plain_import(self):
        ctx = ctx_for("import time\ntime.time()\n")
        call = ctx.tree.body[1].value
        assert ctx.qualified_name(call.func) == "time.time"

    def test_aliased_import(self):
        ctx = ctx_for("import numpy as np\nnp.random.rand()\n")
        call = ctx.tree.body[1].value
        assert ctx.qualified_name(call.func) == "numpy.random.rand"

    def test_from_import_with_alias(self):
        ctx = ctx_for("from time import time as now\nnow()\n")
        call = ctx.tree.body[1].value
        assert ctx.qualified_name(call.func) == "time.time"

    def test_local_names_resolve_to_none(self):
        ctx = ctx_for("rng = object()\nrng.random()\n")
        call = ctx.tree.body[1].value
        assert ctx.qualified_name(call.func) is None

    def test_self_attribute_resolves_to_none(self):
        ctx = ctx_for("import time\n\nclass C:\n    def m(self):\n        self.time.time()\n")
        call = ctx.tree.body[1].body[0].body[0].value
        assert ctx.qualified_name(call.func) is None


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for(Path("src/repro/cloud/compute.py")) == "repro.cloud.compute"

    def test_package_init(self):
        assert module_name_for(Path("src/repro/cloud/__init__.py")) == "repro.cloud"

    def test_loose_script(self):
        assert module_name_for(Path("benchmarks/bench_table1_lab_costs.py")) == (
            "bench_table1_lab_costs"
        )


class TestAnalyzePaths:
    def test_walks_directories_and_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "bad.py").write_text("import time\nt = time.time()\n")
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "stale.py").write_text("import time\nt = time.time()\n")
        result = analyze_paths([tmp_path])
        assert result.files_checked == 2
        assert [f.rule_id for f in result.findings] == ["DET001"]

    def test_stats_buckets(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import time\n"
            "t = time.time()\n"
            "u = time.time()  # repro: noqa DET001 (seeded waiver)\n"
        )
        result = analyze_paths([tmp_path])
        stats = result.stats()
        assert stats["DET001"] == {"new": 1, "suppressed": 1}

    def test_deterministic_ordering(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text("import time\nt = time.time()\n")
        result = analyze_paths([tmp_path])
        assert [f.file for f in result.findings] == sorted(f.file for f in result.findings)


def test_analyze_source_default_module_from_path():
    findings, _ = analyze_source("import time\nt = time.time()\n", path="src/repro/common/clock.py")
    assert findings == []  # resolved module is the exempt repro.common.clock
