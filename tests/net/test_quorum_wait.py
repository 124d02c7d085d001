"""Unit tests for the callback-driven :class:`QuorumWait` primitive.

A process waits on one with ``oks, fails = yield wait.done``.  These
tests pin down the semantics both call sites rely on -- the quorum
coordinator's attributed entries and the ZooKeeper proposal round's
anonymous ones: attribution, same-instant absorption, fail-fast vs
collect-laggards, deadline behaviour, and the O(1) bookkeeping of
timed-out RPC calls.
"""

import pytest

from repro.net.latency import NoLatency
from repro.net.rpc import (QuorumWait, RpcError, RpcNode, RpcRejected,
                           RpcTimeout)
from repro.net.simulator import Simulator
from repro.net.transport import Network


@pytest.fixture
def sim():
    return Simulator()


def drive(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


def waiting(wait):
    """A process body that waits on the fan-in and returns its value."""
    return (yield wait.done)


def deferred(sim, delay, value=None, exc=None):
    """An event that succeeds (or fails) after ``delay`` seconds."""
    ev = sim.event()
    ev.callbacks.append(lambda _e: None)  # observable, not mandatory

    def fire():
        if exc is not None:
            ev.fail(exc)
        else:
            ev.succeed(value)

    sim.schedule_callback(delay, fire)
    return ev


class TestQuorumMet:
    def test_succeeds_with_attribution(self, sim):
        calls = [("r0", deferred(sim, 0.1, "a")),
                 ("r1", deferred(sim, 0.3, "b")),
                 ("r2", deferred(sim, 9.9, "never"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        oks, fails = drive(sim, waiting(wait))
        assert oks == [("r0", "a"), ("r1", "b")]
        assert fails == []
        assert wait.done.triggered

    def test_same_instant_replies_are_absorbed(self, sim):
        """Three acks landing at the same simulated instant all appear
        in ``oks`` even though the second one met the quorum — the
        settle defers one zero-delay callback."""
        calls = [(n, deferred(sim, 0.2, n)) for n in ("r0", "r1", "r2")]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        oks, _fails = drive(sim, waiting(wait))
        assert [n for n, _v in oks] == ["r0", "r1", "r2"]

    def test_already_processed_events_count_at_construction(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run(until=sim.now + 0.01)  # let the event process
        calls = [("r0", done), ("r1", deferred(sim, 0.1, "late"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        oks, _fails = drive(sim, waiting(wait))
        assert ("r0", "early") in oks
        assert ("r1", "late") in oks

    def test_mixed_failures_still_meet_quorum(self, sim):
        calls = [("r0", deferred(sim, 0.1, exc=RpcRejected("not-owner"))),
                 ("r1", deferred(sim, 0.2, "b")),
                 ("r2", deferred(sim, 0.3, "c"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        oks, fails = drive(sim, waiting(wait))
        assert [n for n, _v in oks] == ["r1", "r2"]
        assert [n for n, _e in fails] == ["r0"]


class TestQuorumFailure:
    def test_fail_fast_on_impossible_quorum(self, sim):
        """Two failures out of three with needed=2 settles immediately,
        long before the deadline."""
        calls = [("r0", deferred(sim, 0.1, exc=RpcRejected("x"))),
                 ("r1", deferred(sim, 0.2, exc=RpcRejected("y"))),
                 ("r2", deferred(sim, 50.0, "too-late"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=100.0)

        def waiter():
            with pytest.raises(RpcError):
                yield wait.done
            return sim.now

        settled_at = drive(sim, waiter())
        assert settled_at < 1.0, "fail_fast settles without the deadline"
        assert len(wait.fails) == 2

    def test_collect_laggards_waits_for_all(self, sim):
        """fail_fast=False keeps the wait open while calls are still
        outstanding, even once the quorum is arithmetically dead."""
        calls = [("r0", deferred(sim, 0.1, exc=RpcRejected("x"))),
                 ("r1", deferred(sim, 0.2, exc=RpcRejected("y"))),
                 ("r2", deferred(sim, 0.9, "straggler"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=5.0,
                          fail_fast=False)

        def waiter():
            with pytest.raises(RpcError):
                yield wait.done
            return sim.now

        settled_at = drive(sim, waiter())
        assert settled_at >= 0.9, "waited for the straggler"
        assert [n for n, _v in wait.oks] == ["r2"]

    def test_collect_laggards_can_still_succeed_late(self, sim):
        calls = [("r0", deferred(sim, 0.1, exc=RpcRejected("x"))),
                 ("r1", deferred(sim, 0.5, "b")),
                 ("r2", deferred(sim, 0.9, "c"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=5.0,
                          fail_fast=False)
        oks, fails = drive(sim, waiting(wait))
        assert [n for n, _v in oks] == ["r1", "r2"]
        assert len(fails) == 1

    def test_deadline_raises_timeout(self, sim):
        calls = [("r0", deferred(sim, 0.1, "a")),
                 ("r1", deferred(sim, 99.0, "never")),
                 ("r2", deferred(sim, 99.0, "never"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=0.5)

        def waiter():
            with pytest.raises(RpcTimeout):
                yield wait.done
            return sim.now

        assert drive(sim, waiter()) == pytest.approx(0.5)
        assert wait.oks == [("r0", "a")]

    def test_unsettled_wait_times_out_at_its_deadline(self, sim):
        """Nothing answers: the deadline stays live and fails the wait
        at exactly its instant."""
        calls = [(n, deferred(sim, 99.0, n)) for n in ("r0", "r1", "r2")]
        wait = QuorumWait(sim, calls, needed=2, timeout=0.75)
        with pytest.raises(RpcTimeout):
            drive(sim, waiting(wait))
        assert sim.now == pytest.approx(0.75)
        assert wait.oks == [] and wait.fails == []

    def test_armed_wait_deadline_runs_nothing(self, sim):
        """Once armed the wait ignores its deadline, so it cancels it:
        the reservation keeps its sequence number (draining the run
        schedules nothing more) but holds nothing, fires nothing and
        does not walk the clock to its instant."""
        calls = [(n, deferred(sim, 0.1, n)) for n in ("r0", "r1")]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        deadline = wait._deadline
        assert deadline.fn is not None
        drive(sim, waiting(wait))
        assert deadline.fn is None and deadline.callbacks is None
        scheduled = sim.events_scheduled
        sim.run()
        assert sim.now == pytest.approx(0.1)
        assert not deadline._triggered
        assert sim.events_scheduled == scheduled

    def test_late_replies_not_recorded_after_settle(self, sim):
        calls = [("r0", deferred(sim, 0.1, "a")),
                 ("r1", deferred(sim, 0.2, "b")),
                 ("r2", deferred(sim, 0.4, "late"))]
        wait = QuorumWait(sim, calls, needed=2, timeout=1.0)
        oks, _fails = drive(sim, waiting(wait))
        assert [n for n, _v in oks] == ["r0", "r1"]
        sim.run(until=sim.now + 1.0)
        assert [n for n, _v in wait.oks] == ["r0", "r1"]


class TestGatherQuorumWrapper:
    """Anonymous entries, the form the ZooKeeper proposal round uses."""

    def test_returns_plain_values(self, sim):
        events = [deferred(sim, 0.1, "a"),
                  deferred(sim, 0.2, exc=RpcRejected("no")),
                  deferred(sim, 0.3, "c")]
        wait = QuorumWait(sim, [(None, ev) for ev in events], 2, 1.0)
        oks, fails = drive(sim, waiting(wait))
        assert oks == [(None, "a"), (None, "c")]
        assert len(fails) == 1 and fails[0][0] is None
        assert isinstance(fails[0][1], RpcRejected)

    def test_timeout_propagates(self, sim):
        events = [deferred(sim, 9.0, "a")]

        def waiter():
            with pytest.raises(RpcTimeout):
                yield QuorumWait(sim, [(None, ev) for ev in events], 1,
                                 0.2).done
            return True

        assert drive(sim, waiter())


class TestRpcNodeCleanup:
    def test_timed_out_call_is_forgotten(self, sim):
        """call() learns its id at issue time, so timeout cleanup is a
        single O(1) pop; the pending map must end empty so it never
        leaks across thousands of timed-out calls."""
        net = Network(sim, latency=NoLatency())
        client = RpcNode(net, "cleanup-client")
        # No server registered at "ghost": the call can only time out.

        def caller():
            with pytest.raises(RpcTimeout):
                yield from client.call("ghost", "m", None, timeout=0.2)
            return True

        assert drive(sim, caller())
        assert client._pending == {}
        assert client.calls_timed_out == 1

    def test_call_from_a_down_endpoint_leaves_nothing_behind(self, sim):
        """A crashed endpoint raises before it allocates a call id or
        an event, so nothing is pending and no call is counted."""
        net = Network(sim, latency=NoLatency())
        client = RpcNode(net, "down-client")
        RpcNode(net, "down-server").register("ping", lambda src, args: "pong")
        client.endpoint.crash()
        with pytest.raises(RuntimeError, match="down"):
            client.call_async("down-server", "ping", None)
        assert client._pending == {}
        assert client.calls_issued == 0
        assert net.dropped == 0 and sim.events_scheduled == 0

    def test_answered_call_is_forgotten(self, sim):
        net = Network(sim, latency=NoLatency())
        client = RpcNode(net, "ans-client")
        server = RpcNode(net, "ans-server")
        server.register("ping", lambda src, args: "pong")

        def caller():
            return (yield from client.call("ans-server", "ping", None,
                                           timeout=1.0))

        assert drive(sim, caller()) == "pong"
        assert client._pending == {}
