"""Replay identity: a chaos run is fully determined by its seed.

The history digest covers every operation record (invocation and
response times, acks, responders, results) plus the per-method message
tallies — two runs matching on it executed the same interleaving.
"""

from repro.chaos import ChaosRunner


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


class TestInterleavingClasses:
    """One seed has exactly two interleavings: plain and observed.

    The hazard detector only listens to the kernel, so it replays the
    plain digest.  Tracing stamps ``"tr"`` into the *sized* request
    envelope (net/rpc.py), which moves message latencies: every
    observer that rides the bundle lands on one other digest, whichever
    of them is on — and a seed that is red plain may be green observed
    (known-red seed 15 at 120 s is: ROADMAP, observability item).
    """

    def test_hazards_plain_and_observers_observed(self):
        def digest(**observers):
            return ChaosRunner(seed=3, duration=4.0, **observers).run().digest

        plain = digest()
        assert digest(hazards=True) == plain
        observed = digest(obs=True)
        assert observed != plain
        for observer in ("slo", "record", "timeseries"):
            assert digest(**{observer: True}) == observed, observer
        assert digest(slo=True, record=True, record_always=True,
                      timeseries=True) == observed
