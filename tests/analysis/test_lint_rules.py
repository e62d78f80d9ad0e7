"""Rule-level tests: every rule id has one flagged and one clean fixture.

Fixtures live on disk under ``tests/analysis/fixtures/`` but are linted under
*synthetic* in-scope paths (e.g. ``src/repro/mechanisms/...``) via
``ModuleContext.from_source``: the rules deliberately exclude ``tests/`` and
``fixtures/`` directories, so the on-disk copies never trip the repo-wide lint
gate while the tests still exercise the real scoping logic.
"""

from pathlib import Path

import pytest

from repro.analysis import ModuleContext, get_rules, lint_contexts

FIXTURES = Path(__file__).parent / "fixtures"

MECHANISM_PATH = Path("src/repro/mechanisms/fixture_mechanism.py")
CORE_PATH = Path("src/repro/core/fixture_module.py")
STREAMING_PATH = Path("src/repro/streaming/fixture_aggregates.py")
BENCH_PATH = Path("benchmarks/test_fixture_bench.py")

#: rule id -> (flagged fixture, clean fixture, synthetic path to lint under).
PAIRS = {
    "priv-flow": ("priv_flow_hdg_leak.py", "priv_flow_clean.py", MECHANISM_PATH),
    "rng-ambient": ("rng_ambient_flagged.py", "rng_ambient_clean.py", CORE_PATH),
    "rng-argless": ("rng_argless_flagged.py", "rng_argless_clean.py", CORE_PATH),
    "rng-entropy": ("rng_entropy_flagged.py", "rng_entropy_clean.py", CORE_PATH),
    "rng-missing-seed": (
        "rng_missing_seed_flagged.py",
        "rng_missing_seed_clean.py",
        CORE_PATH,
    ),
    "rng-doc-example": (
        "rng_doc_example_flagged.py",
        "rng_doc_example_clean.py",
        CORE_PATH,
    ),
    "agg-protocol": ("agg_protocol_flagged.py", "agg_protocol_clean.py", STREAMING_PATH),
    "bench-metrics": ("bench_metrics_flagged.py", "bench_metrics_clean.py", BENCH_PATH),
}


def lint_fixture(fixture_name, synthetic_path, rule_id):
    source = (FIXTURES / fixture_name).read_text()
    context = ModuleContext.from_source(source, synthetic_path)
    return lint_contexts([context], get_rules([rule_id]))


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_flagged_fixture_is_flagged(rule_id):
    flagged, _, synthetic_path = PAIRS[rule_id]
    findings = lint_fixture(flagged, synthetic_path, rule_id)
    assert findings, f"{flagged} should be flagged by {rule_id}"
    assert {finding.rule_id for finding in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_clean_fixture_is_clean(rule_id):
    _, clean, synthetic_path = PAIRS[rule_id]
    findings = lint_fixture(clean, synthetic_path, rule_id)
    assert findings == [], f"{clean} should be clean under {rule_id}"


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_clean_fixture_is_clean_under_every_rule(rule_id):
    """Clean fixtures carry no violations at all, not just none for their rule."""
    _, clean, synthetic_path = PAIRS[rule_id]
    source = (FIXTURES / clean).read_text()
    context = ModuleContext.from_source(source, synthetic_path)
    findings = [f for f in lint_contexts([context], get_rules()) if f.rule_id != "bench-baseline"]
    assert findings == []


def test_hdg_leak_regression_flags_the_return():
    """The minimized PR 3 HDG leak must be flagged at the line returning the
    partially-raw stream (the shape the e^eps audit caught dynamically)."""
    source = (FIXTURES / "priv_flow_hdg_leak.py").read_text()
    expected_line = next(
        i for i, line in enumerate(source.splitlines(), start=1) if "return stream" in line
    )
    context = ModuleContext.from_source(source, MECHANISM_PATH)
    findings = lint_contexts([context], get_rules(["priv-flow"]))
    assert [finding.line for finding in findings] == [expected_line]


def test_priv_flow_flags_direct_return():
    source = (
        "class Echo:\n"
        "    def privatize(self, values, seed=None):\n"
        "        return values\n"
    )
    context = ModuleContext.from_source(source, MECHANISM_PATH)
    findings = lint_contexts([context], get_rules(["priv-flow"]))
    assert len(findings) == 1
    assert findings[0].line == 3


def test_rules_respect_out_of_scope_paths():
    """The same flagged sources produce nothing when linted under tests/."""
    for rule_id, (flagged, _, synthetic_path) in PAIRS.items():
        source = (FIXTURES / flagged).read_text()
        test_path = Path("tests") / synthetic_path.name
        context = ModuleContext.from_source(source, test_path)
        assert lint_contexts([context], get_rules([rule_id])) == []


def test_agg_protocol_reports_each_drift():
    source = (FIXTURES / "agg_protocol_flagged.py").read_text()
    findings = lint_fixture("agg_protocol_flagged.py", STREAMING_PATH, "agg-protocol")
    messages = "\n".join(finding.message for finding in findings)
    assert "DriftedAggregate.merge" in messages
    assert "subtract() without merge()" in messages
    assert "DriftedSpec.build" in messages
    assert "subtracted() without merged()" in messages
    assert "DriftedWeightedAggregate.scaled" in messages
    assert len(findings) == 5
    assert "merge(self, shard)" in source  # the drift the fixture encodes
    assert "scaled(self, weight)" in source


class TestSuppressionComments:
    FLAGGED_LINE = "    return points + np.random.normal(scale=0.01, size=points.shape)"

    def _lint_with_comment(self, comment):
        source = (FIXTURES / "rng_ambient_flagged.py").read_text()
        assert self.FLAGGED_LINE in source
        source = source.replace(self.FLAGGED_LINE, self.FLAGGED_LINE + comment)
        context = ModuleContext.from_source(source, CORE_PATH)
        return lint_contexts([context], get_rules(["rng-ambient"]))

    def test_matching_rule_id_suppresses(self):
        assert self._lint_with_comment("  # repro-lint: disable=rng-ambient") == []

    def test_disable_all_suppresses(self):
        assert self._lint_with_comment("  # repro-lint: disable=all") == []

    def test_wrong_rule_id_does_not_suppress(self):
        findings = self._lint_with_comment("  # repro-lint: disable=priv-flow")
        assert [finding.rule_id for finding in findings] == ["rng-ambient"]

    def test_comma_separated_ids(self):
        comment = "  # repro-lint: disable=priv-flow, rng-ambient"
        assert self._lint_with_comment(comment) == []

    def test_suppression_only_covers_its_line(self):
        source = (FIXTURES / "rng_ambient_flagged.py").read_text()
        suppressed = source + (
            "\n\ndef jitter_again(points):  # repro-lint is line-scoped\n"
            "    return points + np.random.normal(size=points.shape)\n"
        )
        context = ModuleContext.from_source(
            suppressed.replace(
                self.FLAGGED_LINE, self.FLAGGED_LINE + "  # repro-lint: disable=all"
            ),
            CORE_PATH,
        )
        findings = lint_contexts([context], get_rules(["rng-ambient"]))
        assert len(findings) == 1  # only the unsuppressed second draw
