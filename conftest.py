"""Repository-root pytest configuration.

Makes ``src/`` importable without an installed package (tier-1 runs
with ``PYTHONPATH=src``, but IDE/CI invocations may not) and loads the
static-analysis plugin so every session analyzes the repository before
tests run (docs/protocols.md §13.1).
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

pytest_plugins = ("repro.analysis.pytest_plugin",)
