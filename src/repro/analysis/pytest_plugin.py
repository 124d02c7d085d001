"""Pytest plugin: run the static analyzer on every test session.

Loaded from the repository's root ``conftest.py`` via
``pytest_plugins``, so tier-1 (``python -m pytest -x -q``) fails fast
when sim code grows a wall-clock read, an unseeded RNG, a bare-set
fan-out or a drifted RPC protocol — before the flake it would cause
ever reaches a chaos replay.  The session analyzes the repository at
its rootdir (:func:`~repro.analysis.report.repo_roots`), parsing each
file once, and fails on any finding that is neither waived inline nor
in the baseline.  ``--no-repro-lint`` skips it (e.g. while iterating
on a known-dirty tree).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from .report import DEFAULT_BASELINE, analyze, repo_roots

_SUMMARY = pytest.StashKey[str]()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.getgroup("repro-analysis").addoption(
        "--no-repro-lint", action="store_true", default=False,
        help="skip the static analysis at session start")


def pytest_configure(config: pytest.Config) -> None:
    # Workers of xdist-style runs or nested sessions: analyze once.
    if config.getoption("--no-repro-lint") \
            or getattr(config, "workerinput", None) is not None:
        return
    root = Path(str(config.rootpath))
    report = analyze(*repo_roots(root), baseline=root / DEFAULT_BASELINE)
    config.stash[_SUMMARY] = report.summary()
    if report.new:
        raise pytest.UsageError(
            f"repro analysis failed ({len(report.new)} new finding(s); "
            "see docs/protocols.md §13, waive with '# repro: "
            "allow[rule-id]' or refresh the baseline with "
            "'python -m repro.analysis --write-baseline'):\n"
            + "\n".join(v.render() for v in report.new))


def pytest_terminal_summary(terminalreporter: pytest.TerminalReporter,
                            config: pytest.Config) -> None:
    summary = config.stash.get(_SUMMARY, None)
    if summary is not None:
        terminalreporter.write_line(f"repro analysis: {summary}")
