"""Replay identity: a chaos run is fully determined by its seed (and
its tie seed, when it has one).

The history digest covers every operation record (invocation and
response times, acks, responders, results) plus the per-method message
tallies — two runs matching on it executed the same interleaving.
"""

import pytest

from repro.chaos import ChaosRunner
from repro.chaos.goldens import GOLDEN_CONFIGS, load_goldens
from repro.chaos.spec import RunSpec


def run(seed: int, profile: str = "mixed"):
    return ChaosRunner(seed=seed, profile=profile, duration=6.0).run()


class TestReplayIdentity:
    def test_same_seed_identical_history(self):
        a = run(seed=2)
        b = run(seed=2)
        assert a.digest == b.digest
        assert a.history.to_bytes() == b.history.to_bytes()
        assert a.schedule.to_bytes() == b.schedule.to_bytes()
        assert a.end_time == b.end_time

    def test_different_seed_differs(self):
        assert run(seed=2).digest != run(seed=3).digest

    def test_profile_changes_history(self):
        assert run(seed=2, profile="crash").digest != run(seed=2).digest


class TestObserversOnlyWatch:
    """One (seed, tie seed) has one interleaving, whoever is watching.

    Trace context rides ``Message.trace`` beside the payload, never in
    the sized envelope, and the sampler's ticks stay out of the tie
    keys, so the bundle and everything that rides it replay the plain
    run — the goldens guard the traced path too, and a diagnosis tool
    looks at the run that actually failed, permuted or not.
    """

    @pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
    def test_every_watcher_on_reproduces_the_golden(self, config):
        spec = RunSpec(seed=1, **GOLDEN_CONFIGS[config])
        report = ChaosRunner(spec, obs=True).run()
        assert report.spec == spec
        assert report.obs_snapshot["tracing"]["spans"] > 0
        assert report.flight_dump and report.slo_status
        assert report.digest == load_goldens()[config][1]

    def test_an_observed_permuted_run_keeps_its_digest(self):
        spec = RunSpec(seed=3, duration=4.0, tie_seed=2)
        observed = ChaosRunner(spec, obs=True).run()
        assert observed.obs_snapshot["tracing"]["spans"] > 0
        assert observed.digest == ChaosRunner(spec).run().digest


class TestTieSeeds:
    """A tie seed picks one order of same-instant events; the pair
    (seed, tie seed) replays as exactly as a seed alone does."""

    def test_same_seed_and_tie_seed_identical_history(self):
        spec = RunSpec(seed=2, duration=6.0, tie_seed=4)
        a, b = ChaosRunner(spec).run(), ChaosRunner(spec).run()
        assert a.digest == b.digest
        assert a.history.to_bytes() == b.history.to_bytes()
        assert a.end_time == b.end_time

    def test_no_tie_seed_is_the_golden(self):
        spec = RunSpec(seed=1, tie_seed=None, **GOLDEN_CONFIGS["chaos"])
        assert ChaosRunner(spec).run().digest == load_goldens()["chaos"][1]
