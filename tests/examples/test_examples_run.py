"""Smoke tests: every shipped example runs to completion.

Each example is executed in-process (runpy) with stdout captured; the
assertions check the banner lines that prove the interesting part
actually happened.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


def test_quickstart():
    out = run_example("quickstart.py")
    assert "read_latest -> 'hello, sedna'" in out
    assert "after lazy recovery: 3" in out


def test_microblog_search():
    out = run_example("microblog_search.py")
    assert "crawl->searchable freshness" in out
    assert "0 action errors" in out


def test_realtime_analytics():
    out = run_example("realtime_analytics.py")
    assert "trending dashboard" in out
    assert "converged value: 0" in out


def test_failure_recovery():
    out = run_example("failure_recovery.py")
    assert "40/40 keys intact" in out


def test_elastic_scaling():
    out = run_example("elastic_scaling.py")
    assert "300/300 keys correct after scaling" in out
    assert "post-GC verification: 300/300" in out
