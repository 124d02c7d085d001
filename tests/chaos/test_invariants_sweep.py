"""Long chaos sweeps: every profile × many seeds holds every invariant.

Marked ``slow`` — excluded from the default (tier-1) run; execute with
``pytest -m slow tests/chaos``.
"""

import pytest

from repro.chaos import ChaosRunner
from repro.chaos.schedule import PROFILES

SEEDS = (1, 2, 3, 4, 5)


@pytest.mark.slow
@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_invariants_hold(seed, profile):
    report = ChaosRunner(seed=seed, profile=profile, duration=10.0).run()
    assert report.ok, report.describe()


@pytest.mark.slow
def test_longer_mixed_runs():
    for seed in (11, 12):
        report = ChaosRunner(seed=seed, profile="mixed",
                             duration=20.0).run()
        assert report.ok, report.describe()


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(14))
def test_long_horizon_mixed(seed):
    """120 s of ``mixed``: the horizon where the freshness violations of
    seeds 14, 15 and 34 appear (those three are strict-xfail corpus
    entries in tests/chaos/regressions/; the seeds below them are
    green), so the next such finding is caught here."""
    report = ChaosRunner(seed=seed, profile="mixed", duration=120.0).run()
    assert report.ok, report.describe()
