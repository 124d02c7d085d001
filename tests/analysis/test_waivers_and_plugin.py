"""Waiver-dialect edge cases and the pytest plugin's session behaviour.

The waiver comment (``# repro: allow[rule-id]``) is one dialect for
all sixteen rules, so its parsing edge cases get pinned here once,
against :func:`repro.analysis.index.is_waived`, plus end-to-end through
:func:`repro.analysis.report.analyze`.  The second half drives the
pytest plugin in subprocess sessions: its *failure* paths on throwaway
``src/repro`` trees (the success path runs on every tier-1 session),
and the one-parse-per-file promise on the real repository.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis.index import is_waived
from repro.analysis.report import analyze

REPO = Path(__file__).resolve().parents[2]


def _lint(tmp_path: Path, source: str):
    path = tmp_path / "waiver_fixture.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze([path]).violations


class TestWaiverParsing:
    def test_multiple_rule_ids_on_one_line(self):
        lines = ["x = 1  # repro: allow[wall-clock, unseeded-random]"]
        assert is_waived(lines, "wall-clock", 1)
        assert is_waived(lines, "unseeded-random", 1)
        assert not is_waived(lines, "builtin-hash", 1)

    def test_unknown_rule_id_does_not_suppress_others(self):
        lines = ["x = 1  # repro: allow[no-such-rule]"]
        assert not is_waived(lines, "wall-clock", 1)
        # A list with one unknown entry still waives the known ones.
        mixed = ["x = 1  # repro: allow[no-such-rule, wall-clock]"]
        assert is_waived(mixed, "wall-clock", 1)
        assert not is_waived(mixed, "unseeded-random", 1)

    def test_star_waives_every_rule(self):
        lines = ["x = 1  # repro: allow[*]"]
        for rule in ("wall-clock", "builtin-hash", "rpc-timeout"):
            assert is_waived(lines, rule, 1)

    def test_waiver_on_comment_only_line_above(self):
        lines = [
            "# repro: allow[wall-clock]",
            "now = time.time()",
        ]
        assert is_waived(lines, "wall-clock", 2)

    def test_waiver_two_lines_above_does_not_apply(self):
        lines = [
            "# repro: allow[wall-clock]",
            "",
            "now = time.time()",
        ]
        assert not is_waived(lines, "wall-clock", 3)

    def test_line_numbers_out_of_range_are_harmless(self):
        lines = ["# repro: allow[wall-clock]"]
        assert not is_waived(lines, "wall-clock", 99)
        assert not is_waived([], "wall-clock", 1)
        # Line 1 has no "line above"; the lookup must not wrap around
        # to the end of the file.
        tail = ["x = 1", "# repro: allow[wall-clock]"]
        assert not is_waived(tail, "wall-clock", 1)

    def test_lint_source_marks_waived_not_dropped(self, tmp_path):
        violations = _lint(
            tmp_path,
            """
            import time

            def f():
                return time.time()  # repro: allow[wall-clock]
            """
        )
        hits = [v for v in violations if v.rule == "wall-clock"]
        assert hits and all(v.waived for v in hits)

    def test_lint_source_comma_list_covers_both_rules_on_one_line(
            self, tmp_path):
        violations = _lint(
            tmp_path,
            """
            import time

            def f():
                # repro: allow[wall-clock, builtin-hash]
                return hash(str(time.time()))
            """
        )
        assert {v.rule for v in violations} >= {"wall-clock",
                                                "builtin-hash"}
        assert all(v.waived for v in violations)

    def test_lint_source_unknown_id_leaves_finding_active(self, tmp_path):
        violations = _lint(
            tmp_path,
            """
            import time

            def f():
                return time.time()  # repro: allow[not-a-rule]
            """
        )
        hits = [v for v in violations if v.rule == "wall-clock"]
        assert hits and not any(v.waived for v in hits)


def _run_pytest(tmp_path: Path, modules: dict) -> subprocess.CompletedProcess:
    """One isolated pytest session, plugin loaded explicitly, rooted at
    a throwaway repository whose ``src/repro`` holds ``modules``."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in modules.items():
        (pkg / name).write_text(textwrap.dedent(source), encoding="utf-8")
    (tmp_path / "test_dummy.py").write_text(
        "def test_ok():\n    assert True\n", encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "repro.analysis.pytest_plugin", "test_dummy.py"],
        cwd=tmp_path, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestPluginFailureReporting:
    def test_lint_failure_aborts_session_with_usage_error(self, tmp_path):
        proc = _run_pytest(tmp_path, {"dirty.py": """
            import time

            def f():
                return time.time()
            """})
        # pytest.UsageError exits with code 4 before collection.
        assert proc.returncode == 4
        err = proc.stderr + proc.stdout
        assert "repro analysis failed" in err
        assert "wall-clock" in err
        assert "docs/protocols.md" in err

    def test_protocol_failure_aborts_after_clean_lint(self, tmp_path):
        proc = _run_pytest(tmp_path, {"mod.py": """
            class Client:
                def __init__(self, rpc):
                    self.rpc = rpc

                def fetch(self):
                    out = yield from self.rpc.call(
                        "peer", "fx.nowhere", {}, timeout=1.0)
                    return out
            """})
        assert proc.returncode == 4
        err = proc.stderr + proc.stdout
        assert "repro analysis failed" in err
        assert "rpc-unregistered-method" in err
        assert "wall-clock" not in err
        assert "docs/protocols.md" in err

    def test_clean_tree_reports_success_summary(self, tmp_path):
        proc = _run_pytest(tmp_path, {"clean.py": "X = 1\n"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "repro analysis: 2 file(s) indexed, 0 new finding(s)" \
            in proc.stdout


_COUNT_PARSES = """
import ast, collections, json, sys
import pytest

counts = collections.Counter()
parse = ast.parse

def counting(source, filename="<unknown>", *args, **kwargs):
    counts[str(filename)] += 1
    return parse(source, filename, *args, **kwargs)

ast.parse = counting
code = pytest.main(sys.argv[1:])
print("PARSES " + json.dumps({"exit": int(code), "counts": counts}))
"""


class TestPluginSession:
    def test_each_indexed_file_is_parsed_once(self):
        """A session analyzes the repository from one index: every
        package, test, benchmark and example file is parsed exactly
        once (assertion rewriting, which parses test modules again, is
        off so only the analysis is counted)."""
        proc = subprocess.run(
            [sys.executable, "-c", _COUNT_PARSES, "-q", "-p",
             "no:cacheprovider", "--assert=plain", "--co",
             "tests/analysis/test_waivers_and_plugin.py"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        line = next((ln for ln in proc.stdout.splitlines()
                     if ln.startswith("PARSES ")), None)
        assert line is not None, proc.stdout + proc.stderr
        result = json.loads(line[len("PARSES "):])
        assert result["exit"] == 0, proc.stdout + proc.stderr
        per_file = {}
        for name, count in result["counts"].items():
            path = Path(name).resolve()
            per_file[path] = per_file.get(path, 0) + count
        package = set((REPO / "src" / "repro").rglob("*.py"))
        assert package <= set(per_file), sorted(package - set(per_file))
        indexed = {p: n for p, n in per_file.items()
                   if any(p.is_relative_to(REPO / d) for d in
                          ("src", "tests", "benchmarks", "examples"))}
        assert len(indexed) > 250
        assert {p: n for p, n in indexed.items() if n != 1} == {}
