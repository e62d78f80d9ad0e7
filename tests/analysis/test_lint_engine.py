"""Engine, registry, findings-rendering and bench-baseline filesystem tests."""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    RULES,
    get_rules,
    lint_paths,
    render_json,
    render_text,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestRegistry:
    def test_all_rule_ids_registered(self):
        assert set(RULES) == {
            "priv-flow",
            "rng-ambient",
            "rng-argless",
            "rng-entropy",
            "rng-missing-seed",
            "rng-doc-example",
            "agg-protocol",
            "bench-metrics",
            "bench-baseline",
        }

    def test_get_rules_default_returns_all(self):
        assert {rule.rule_id for rule in get_rules()} == set(RULES)

    def test_get_rules_filters_and_preserves_request(self):
        rules = get_rules(["rng-ambient", "priv-flow"])
        assert {rule.rule_id for rule in rules} == {"rng-ambient", "priv-flow"}

    def test_get_rules_unknown_id_raises(self):
        with pytest.raises(KeyError, match="no-such-rule"):
            get_rules(["no-such-rule"])


class TestEngine:
    def test_parse_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        findings = lint_paths([tmp_path])
        assert [finding.rule_id for finding in findings] == ["parse-error"]

    def test_overlapping_paths_deduplicate(self, tmp_path):
        module = tmp_path / "src" / "repro" / "core" / "dup.py"
        module.parent.mkdir(parents=True)
        module.write_text((FIXTURES / "rng_ambient_flagged.py").read_text())
        findings = lint_paths([tmp_path, module, module], rule_ids=["rng-ambient"])
        assert len(findings) == 1

    def test_skip_dirs_are_not_linted(self, tmp_path):
        cached = tmp_path / "src" / "repro" / "__pycache__" / "junk.py"
        cached.parent.mkdir(parents=True)
        cached.write_text("import random\n")
        assert lint_paths([tmp_path]) == []

    def test_findings_sorted_by_path_then_line(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "b_module.py").write_text(
            "import numpy as np\n\n\ndef f(points):\n"
            "    return np.random.normal(size=points.shape)\n"
        )
        (tree / "a_module.py").write_text(
            "import numpy as np\n\n\ndef g(points):\n"
            "    return np.random.uniform(size=points.shape)\n"
        )
        findings = lint_paths([tmp_path], rule_ids=["rng-ambient"])
        assert [Path(finding.path).name for finding in findings] == [
            "a_module.py",
            "b_module.py",
        ]


class TestBenchBaseline:
    """bench-baseline reads the smoke.json next to the benchmark file."""

    def _materialize(self, tmp_path, gated):
        bench_dir = tmp_path / "benchmarks"
        (bench_dir / "baselines").mkdir(parents=True)
        source = (FIXTURES / "bench_baseline_throughput.py").read_text()
        (bench_dir / "test_kernel_throughput.py").write_text(source)
        if gated is not None:
            baseline = {"profile": "smoke", "max_regression": 0.3, "gated": gated}
            (bench_dir / "baselines" / "smoke.json").write_text(json.dumps(baseline))
        return bench_dir

    def test_fully_gated_baseline_is_clean(self, tmp_path):
        gated = {"kernel_throughput": {"kernel_speedup": 12.0, "copy_ratio": 0.4}}
        bench_dir = self._materialize(tmp_path, gated)
        assert lint_paths([bench_dir], rule_ids=["bench-baseline"]) == []

    def test_ungated_asserted_metric_is_flagged(self, tmp_path):
        gated = {"kernel_throughput": {"kernel_speedup": 12.0}}
        bench_dir = self._materialize(tmp_path, gated)
        findings = lint_paths([bench_dir], rule_ids=["bench-baseline"])
        assert len(findings) == 1
        assert "copy_ratio" in findings[0].message

    def test_missing_baseline_file_is_flagged(self, tmp_path):
        bench_dir = self._materialize(tmp_path, gated=None)
        findings = lint_paths([bench_dir], rule_ids=["bench-baseline"])
        assert len(findings) == 1
        assert findings[0].line == 1
        assert "missing or unreadable" in findings[0].message


class TestRendering:
    FINDINGS = [
        Finding(path="src/repro/a.py", line=3, rule_id="rng-ambient", message="draw"),
        Finding(path="src/repro/b.py", line=7, rule_id="priv-flow", message="leak"),
    ]

    def test_format_is_compiler_style(self):
        assert self.FINDINGS[0].format() == "src/repro/a.py:3: [rng-ambient] draw"

    def test_render_text_has_count_footer(self):
        text = render_text(self.FINDINGS)
        assert text.splitlines()[-1] == "2 findings"
        assert render_text([]).splitlines()[-1] == "0 findings"
        assert render_text(self.FINDINGS[:1]).splitlines()[-1] == "1 finding"

    def test_render_json_round_trips(self):
        payload = json.loads(render_json(self.FINDINGS))
        assert payload == [
            {"path": "src/repro/a.py", "line": 3, "rule_id": "rng-ambient", "message": "draw"},
            {"path": "src/repro/b.py", "line": 7, "rule_id": "priv-flow", "message": "leak"},
        ]
