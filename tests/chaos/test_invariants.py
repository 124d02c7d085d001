"""Unit tests for the invariant checkers, focused on the freshness /
durability-loss carve-out (the seed-2 anomaly root cause).

A write acked at W quorum is only guaranteed visible to later reads
while at least one acker still holds it.  When every acker crashes
(memory-first store, asynchronous persistence) the value is provably
gone — the checker must report that as an *expected* durability loss,
not a freshness violation, and must keep hard-failing staleness
whenever any acker survived.
"""

import time

from repro.chaos.history import History
from repro.chaos.invariants import (FinalState, check_all, check_freshness,
                                    check_migrations)


def _history(read_status="found", read_ts=1.0, read_src="c1"):
    """w1(ts=1, acks n1,n2) -> w2(ts=2, acks n2,n3) -> read at t=5."""
    h = History()
    w1 = h.begin("c1", "write_latest", "k", 1.0, value="a", ts=1.0)
    h.complete(w1, 1.1, "ok", acks=("n1", "n2"))
    w2 = h.begin("c1", "write_latest", "k", 2.0, value="b", ts=2.0)
    h.complete(w2, 2.1, "ok", acks=("n2", "n3"))
    r = h.begin("c2", "read_latest", "k", 5.0)
    if read_status == "found":
        h.complete(r, 5.1, "found", result_ts=read_ts,
                   result_source=read_src, result_value="a",
                   responders=("n1",))
    else:
        h.complete(r, 5.1, read_status, responders=("n1",))
    return h


class TestDurabilityLossCarveOut:
    def test_stale_read_is_hard_violation_without_crashes(self):
        anomalies = check_freshness(_history(), FinalState())
        assert [a.invariant for a in anomalies] == ["freshness"]
        assert not anomalies[0].expected

    def test_whole_ack_set_crashed_downgrades_to_expected(self):
        crashes = ((3.0, "n2"), (4.0, "n3"))
        anomalies = check_freshness(_history(), FinalState(),
                                    crashes=crashes)
        assert [a.invariant for a in anomalies] == ["durability-loss"]
        assert anomalies[0].expected
        assert "all ackers crashed" in anomalies[0].detail

    def test_surviving_acker_keeps_hard_violation(self):
        crashes = ((3.0, "n2"),)  # n3, an acker of w2, stayed up
        anomalies = check_freshness(_history(), FinalState(),
                                    crashes=crashes)
        assert [a.invariant for a in anomalies] == ["freshness"]
        assert not anomalies[0].expected

    def test_crash_before_ack_does_not_excuse(self):
        # Crashes predating the ack can't have wiped the write.
        crashes = ((0.5, "n2"), (0.5, "n3"))
        anomalies = check_freshness(_history(), FinalState(),
                                    crashes=crashes)
        assert [a.invariant for a in anomalies] == ["freshness"]

    def test_crash_after_read_does_not_excuse(self):
        crashes = ((6.0, "n2"), (6.0, "n3"))
        anomalies = check_freshness(_history(), FinalState(),
                                    crashes=crashes)
        assert [a.invariant for a in anomalies] == ["freshness"]

    def test_fresh_read_reports_nothing(self):
        anomalies = check_freshness(
            _history(read_ts=2.0), FinalState(),
            crashes=((3.0, "n2"), (4.0, "n3")))
        assert anomalies == []

    def test_miss_with_every_ack_set_lost_is_expected(self):
        crashes = ((3.0, "n1"), (3.0, "n2"), (4.0, "n3"))
        anomalies = check_freshness(_history(read_status="miss"),
                                    FinalState(), crashes=crashes)
        assert [a.invariant for a in anomalies] == ["durability-loss"]
        assert anomalies[0].expected

    def test_miss_with_surviving_acker_is_hard(self):
        crashes = ((3.0, "n2"), (4.0, "n3"))  # n1 still holds w1
        anomalies = check_freshness(_history(read_status="miss"),
                                    FinalState(), crashes=crashes)
        assert [a.invariant for a in anomalies] == ["freshness"]


def _migration_history(deleted=False):
    """One acked write (and optionally a delete) of key ``k``."""
    h = History()
    w = h.begin("c1", "write_latest", "k", 1.0, value="a", ts=1.0)
    h.complete(w, 1.1, "ok", acks=("n1", "n2"))
    if deleted:
        d = h.begin("c1", "delete", "k", 2.0)
        h.complete(d, 2.1, "ok", acks=("n1", "n2"))
    return h


def _migrated_state(holders):
    """Key ``k`` lives on vnode 4, replicas n2 (post-cutover) and n1."""
    return FinalState(replica_sets={"k": (4, ["n2", "n1"])},
                      holders={"k": holders})


def _entry(state="done", **over):
    entry = {"vnode": 4, "donor": "n1", "receiver": "n2",
             "state": state, "attempts": 0, "chunks": 1,
             "bytes": 64, "reason": ""}
    entry.update(over)
    return entry


class TestMigrationInvariant:
    def test_done_migration_with_holder_is_clean(self):
        anomalies = check_migrations(
            _migration_history(),
            _migrated_state({"n2": [("c1", 1.0, "a")]}),
            migrations=(_entry(),))
        assert anomalies == []

    def test_done_migration_without_holder_flags_key(self):
        anomalies = check_migrations(
            _migration_history(), _migrated_state({}),
            migrations=(_entry(),))
        assert [a.invariant for a in anomalies] == ["migration"]
        assert not anomalies[0].expected
        assert "vnode 4" in anomalies[0].detail
        assert "n1 -> n2" in anomalies[0].detail

    def test_unresolved_ledger_entry_is_an_anomaly(self):
        anomalies = check_migrations(
            _migration_history(),
            _migrated_state({"n2": [("c1", 1.0, "a")]}),
            migrations=(_entry(state="copying"),))
        assert [a.invariant for a in anomalies] == ["migration"]
        assert "unresolved" in anomalies[0].detail

    def test_aborted_migration_makes_no_claim(self):
        # An aborted copy left the donor authoritative; the global
        # durability checker covers the key, not invariant 6.
        anomalies = check_migrations(
            _migration_history(), _migrated_state({}),
            migrations=(_entry(state="aborted", reason="quiesce"),))
        assert anomalies == []

    def test_deleted_key_is_not_flagged(self):
        anomalies = check_migrations(
            _migration_history(deleted=True), _migrated_state({}),
            migrations=(_entry(),))
        assert anomalies == []

    def test_other_vnodes_keys_ignored(self):
        state = FinalState(replica_sets={"k": (9, ["n2", "n1"])},
                           holders={"k": {}})
        assert check_migrations(_migration_history(), state,
                                migrations=(_entry(),)) == []

    def test_no_ledger_no_work(self):
        assert check_migrations(_migration_history(),
                                _migrated_state({})) == []


class TestScale:
    def test_check_all_stays_fast_on_a_long_history(self):
        """40k records on 6 keys, about nine 120 s chaos runs' worth.
        Rescanning the whole log per read took minutes on this; the
        per-key index and the freshness sweep take a fraction of a
        second, so 5 s leaves a wide margin."""
        h = History()
        keys = [f"lw-{i}" for i in range(6)]
        latest = {}
        for i in range(40_000):
            key, client, t = keys[i % 6], f"c{i % 3}", i * 0.01
            if (i // 6) % 4 == 0:       # every key: a write, three reads
                record = h.begin(client, "write_latest", key, t,
                                 value=i, ts=t)
                h.complete(record, t + 0.005, "ok", acks=("n0", "n1"))
                latest[key] = (t, client)
            else:
                record = h.begin(client, "read_latest", key, t)
                ts, source = latest[key]
                h.complete(record, t + 0.005, "found", responders=("n0",),
                           result_ts=ts, result_source=source,
                           result_value="v")
        state = FinalState(
            replica_sets={k: (0, ["n0"]) for k in keys},
            holders={k: {"n0": [(source, ts, "v")]}
                     for k, (ts, source) in latest.items()})
        crashes = tuple((float(s), "n2") for s in range(0, 400, 10))
        start = time.perf_counter()
        anomalies = check_all(h, state, crashes=crashes)
        elapsed = time.perf_counter() - start
        assert len(h) == 40_000 and anomalies == []
        assert elapsed < 5.0, f"check_all took {elapsed:.1f} s"
