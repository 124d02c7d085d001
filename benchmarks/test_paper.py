"""The paper suite: Fig. 4/6/7/8, Table I, §III.E and the ablations.

One case per :data:`repro.bench.PAPER` entry.  Each prints its render
(``-s`` shows them) and fails, render attached, unless every paper-shape
expectation held.  The suite writes nothing: EXPERIMENTS.md quotes
these renders.

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_paper.py
"""

import pytest

from repro.bench import PAPER


@pytest.mark.parametrize("name", PAPER)
def test_paper(name):
    result = PAPER[name]()
    text = result.render()
    print("\n" + text)
    assert result.all_expectations_met, text
