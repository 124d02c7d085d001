"""Per-rule fixtures for the determinism rules.

Every rule has a ``bad_<rule>.py`` fixture it must fire on (and fire
*alone* among the determinism rules — fixtures are single-rule by
construction) and a ``good_<rule>.py`` fixture it must stay quiet on.
``fixture_findings.json`` pins every finding, of all sixteen rules, on
every fixture.  Plus: inline waivers, parse errors, CLI exit status,
and the meta-check that the shipped source tree is clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.__main__ import main
from repro.analysis.lint import RULES
from repro.analysis.report import analyze

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
# (rule, line, col, waived) per fixture, as the separate determinism
# lint and protocol analyzer reported them before they became one pass.
EXPECTED = json.loads(
    (HERE / "fixture_findings.json").read_text(encoding="utf-8"))


def _slug(rule: str) -> str:
    return rule.replace("-", "_")


def _determinism(path: Path):
    return [v for v in analyze([path]).violations if v.rule in RULES]


def _source(tmp_path: Path, source: str):
    path = tmp_path / "snippet.py"
    path.write_text(source, encoding="utf-8")
    return analyze([path]).violations


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_findings_are_pinned(name):
    found = sorted([v.rule, v.line, v.col, v.waived]
                   for v in analyze([FIXTURES / name]).violations)
    assert found == EXPECTED[name]


@pytest.mark.parametrize("rule", sorted(RULES))
class TestPerRuleFixtures:
    def test_fires_on_bad_fixture(self, rule):
        violations = _determinism(FIXTURES / f"bad_{_slug(rule)}.py")
        hits = [v for v in violations if v.rule == rule]
        assert hits, f"{rule} did not fire on its bad fixture"
        assert not any(v.waived for v in hits)
        # Fixtures are single-rule: nothing else may fire.
        assert {v.rule for v in violations} == {rule}, violations

    def test_quiet_on_good_fixture(self, rule):
        violations = _determinism(FIXTURES / f"good_{_slug(rule)}.py")
        assert violations == [], [v.render() for v in violations]


class TestWaivers:
    def test_waiver_suppresses_but_is_recorded(self):
        report = analyze([FIXTURES / "waived.py"])
        assert len(report.violations) == 1
        assert report.violations[0].rule == "wall-clock"
        assert report.violations[0].waived
        assert report.new == []

    def test_waiver_on_same_line(self, tmp_path):
        src = "import time\nts = time.time()  # repro: allow[wall-clock]\n"
        (violation,) = _source(tmp_path, src)
        assert violation.waived

    def test_wildcard_waiver(self, tmp_path):
        src = "import time\n# repro: allow[*]\nts = time.time()\n"
        (violation,) = _source(tmp_path, src)
        assert violation.waived

    def test_waiver_for_other_rule_does_not_apply(self, tmp_path):
        src = "import time\n# repro: allow[builtin-hash]\nts = time.time()\n"
        (violation,) = _source(tmp_path, src)
        assert not violation.waived


class TestHarness:
    def test_parse_error_is_a_finding_not_a_crash(self, tmp_path):
        """A rule-checked file that does not parse fails the run; it is
        not silently left out of the index."""
        (tmp_path / "ok.py").write_text("X = 1\n", encoding="utf-8")
        (tmp_path / "x.py").write_text("def broken(:\n", encoding="utf-8")
        report = analyze([tmp_path])
        (violation,) = report.violations
        assert violation.rule == "parse-error"
        assert report.new == [violation]
        assert report.summary().startswith(
            "1 file(s) indexed, 1 new finding(s)")

    def test_source_tree_is_clean(self, repo_analysis):
        report, _ = repo_analysis
        checked = [f for f in report.protocol.index.files
                   if not f.call_site_only]
        assert len(checked) > 50
        assert [v.render() for v in report.violations
                if v.rule in RULES or v.rule == "parse-error"] == []

    def test_cli_exit_status_counts_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\nts = time.time()\n",
                       encoding="utf-8")
        assert main([str(bad)]) == 1
        assert main([str(FIXTURES / "good_wall_clock.py")]) == 0
        capsys.readouterr()

    def test_cli_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("h = hash('k')\n", encoding="utf-8")
        assert main([str(bad), "--json"]) == 1
        out = capsys.readouterr().out
        assert '"builtin-hash"' in out
