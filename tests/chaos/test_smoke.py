"""Fast chaos smoke: one mixed-profile run must hold every invariant.

Tier-1: one short seeded run with crashes, partitions and message
loss, quiesced and checked against all five safety invariants.  The
long multi-seed sweeps live in ``test_invariants_sweep.py`` behind the
``slow`` marker.
"""

from repro.chaos import ChaosRunner
from repro.chaos.schedule import PROFILES, ScheduleGenerator


class TestChaosSmoke:
    def test_mixed_run_holds_invariants_under_tie_seeds(self):
        """The same run under tie seeds 1-3: other orders of its
        same-instant events, each its own interleaving."""
        plain = ChaosRunner(seed=1, profile="mixed", duration=8.0).run()
        assert plain.ok, "\n".join(str(a) for a in plain.anomalies)
        for tie in (1, 2, 3):
            report = ChaosRunner(seed=1, profile="mixed", duration=8.0,
                                 tie_seed=tie).run()
            assert report.ok, "\n".join(str(a) for a in report.anomalies)
            assert report.digest != plain.digest, tie

    def test_run_exercises_real_faults_and_ops(self):
        report = ChaosRunner(seed=1, profile="mixed", duration=8.0).run()
        assert report.crashes >= 1
        assert {"partition", "heal"} <= report.schedule.kinds
        for kind in ("write_latest", "write_all", "read_latest",
                     "read_all", "delete", "multi_write", "multi_read",
                     "multi_delete"):
            assert report.op_counts.get(kind, 0) > 0, kind
        assert len(report.history) > 50

    def test_schedule_generation_is_deterministic(self):
        names = [f"node{i}" for i in range(6)]
        a = ScheduleGenerator(names, seed=9, profile="mixed").generate()
        b = ScheduleGenerator(names, seed=9, profile="mixed").generate()
        assert a.to_bytes() == b.to_bytes()
        c = ScheduleGenerator(names, seed=10, profile="mixed").generate()
        assert a.to_bytes() != c.to_bytes()

    def test_every_profile_generates_its_fault_family(self):
        names = [f"node{i}" for i in range(6)]
        family = {"crash": {"crash"}, "partition": {"partition", "heal"},
                  "loss": {"loss_start", "loss_stop"},
                  "churn": {"crash", "restart"}}
        for profile in PROFILES:
            sched = ScheduleGenerator(names, seed=3,
                                      profile=profile).generate()
            assert sched.events, profile
            if profile in family:
                assert family[profile] <= sched.kinds, (profile,
                                                        sched.kinds)

    def test_max_down_respected(self):
        """Crashed and islanded nodes *together* stay within the cap."""
        names = [f"node{i}" for i in range(6)]
        for seed in range(10):
            sched = ScheduleGenerator(names, seed=seed, profile="mixed",
                                      max_down=2).generate()
            down: set[str] = set()
            islanded: set[str] = set()
            worst = 0
            for ev in sched.events:
                if ev.kind == "crash":
                    down |= set(ev.targets)
                elif ev.kind == "restart":
                    down -= set(ev.targets)
                elif ev.kind == "partition":
                    islanded |= set(ev.targets)
                elif ev.kind == "heal":
                    islanded -= set(ev.targets)
                worst = max(worst, len(down | islanded))
            assert worst <= 2, (seed, worst)
