"""The shipped repository, analyzed once per test session."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.analysis.report import DEFAULT_BASELINE, analyze, repo_roots

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_analysis():
    """``(report, seconds)``: the repository analyzed exactly as the
    pytest plugin and the bare CLI do."""
    t0 = time.monotonic()
    report = analyze(*repo_roots(REPO), baseline=REPO / DEFAULT_BASELINE)
    return report, time.monotonic() - t0
