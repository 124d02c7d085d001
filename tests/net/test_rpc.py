"""Unit tests for the RPC layer and the quorum fan-in over its calls."""

import pytest

from repro.net.latency import NoLatency, UniformLatency
from repro.net.rpc import (QuorumWait, RpcError, RpcNode, RpcRejected,
                           RpcTimeout)
from repro.net.simulator import Simulator
from repro.net.transport import Network


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, latency=NoLatency())


def make_pair(net):
    client = RpcNode(net, "client")
    server = RpcNode(net, "server")
    return client, server


class TestBasicCalls:
    def test_call_returns_handler_result(self, sim, net):
        client, server = make_pair(net)
        server.register("echo", lambda src, args: {"from": src, "args": args})

        def caller():
            result = yield from client.call("server", "echo", [1, 2], timeout=1.0)
            return result

        proc = sim.process(caller())
        assert sim.run(until=proc) == {"from": "client", "args": [1, 2]}

    def test_unknown_method_is_refused(self, sim, net):
        client, _server = make_pair(net)

        def caller():
            try:
                yield from client.call("server", "nope", None, timeout=1.0)
            except RpcRejected as rej:
                return rej.reason
            return "no error"

        proc = sim.process(caller())
        assert sim.run(until=proc) == "no-such-method:nope"

    def test_handler_rejection_propagates(self, sim, net):
        client, server = make_pair(net)

        def refuse(src, args):
            raise RpcRejected("not-owner")

        server.register("get", refuse)

        def caller():
            with pytest.raises(RpcRejected, match="not-owner"):
                yield from client.call("server", "get", None, timeout=1.0)
            return "ok"

        proc = sim.process(caller())
        assert sim.run(until=proc) == "ok"

    def test_call_to_dead_node_times_out(self, sim, net):
        client, server = make_pair(net)
        server.register("echo", lambda src, args: args)
        server.endpoint.crash()

        def caller():
            with pytest.raises(RpcTimeout):
                yield from client.call("server", "echo", 1, timeout=0.5)
            return sim.now

        proc = sim.process(caller())
        assert sim.run(until=proc) == pytest.approx(0.5)
        assert client.calls_timed_out == 1

    def test_late_reply_after_timeout_ignored(self, sim):
        net = Network(sim, latency=UniformLatency(propagation=1.0, jitter=0.0))
        client = RpcNode(net, "client")
        server = RpcNode(net, "server")
        server.register("slow", lambda src, args: "late")

        def caller():
            with pytest.raises(RpcTimeout):
                yield from client.call("server", "slow", None, timeout=0.5)
            # Let the late response arrive; nothing should blow up.
            yield sim.timeout(5.0)
            return "survived"

        proc = sim.process(caller())
        assert sim.run(until=proc) == "survived"

    def test_deferred_event_result(self, sim, net):
        client, server = make_pair(net)

        def deferred(src, args):
            ev = sim.event()
            sim.schedule_callback(0.3, lambda: ev.succeed("eventually"))
            return ev

        server.register("defer", deferred)

        def caller():
            result = yield from client.call("server", "defer", None, timeout=1.0)
            return result, sim.now

        proc = sim.process(caller())
        result, when = sim.run(until=proc)
        assert result == "eventually"
        assert when == pytest.approx(0.3)

    def test_service_time_charged(self, sim, net):
        client = RpcNode(net, "client")
        server = RpcNode(net, "server", service_time=0.01)
        server.register("echo", lambda src, args: args)

        def caller():
            yield from client.call("server", "echo", 1, timeout=1.0)
            return sim.now

        proc = sim.process(caller())
        assert sim.run(until=proc) == pytest.approx(0.01)

    def test_stats_counters(self, sim, net):
        client, server = make_pair(net)
        server.register("echo", lambda src, args: args)

        def caller():
            yield from client.call("server", "echo", 1, timeout=1.0)
            yield from client.call("server", "echo", 2, timeout=1.0)

        sim.process(caller())
        sim.run()
        assert client.calls_issued == 2
        assert server.requests_served == 2


def quorum(sim, events, needed, timeout):
    """The fan-in over anonymous entries, as the ZooKeeper proposal
    round builds it: ``oks, fails = yield quorum(...)``."""
    return QuorumWait(sim, [(None, ev) for ev in events], needed,
                      timeout).done


class TestGatherQuorum:
    def _fanout(self, sim, net, n_servers, handler_for):
        client = RpcNode(net, "client")
        for i in range(n_servers):
            server = RpcNode(net, f"s{i}")
            server.register("op", handler_for(i))
        return client

    def test_quorum_met(self, sim, net):
        client = self._fanout(sim, net, 3, lambda i: (lambda src, args: f"v{i}"))

        def coordinator():
            events = [client.call_async(f"s{i}", "op", None) for i in range(3)]
            oks, fails = yield quorum(sim, events, needed=2, timeout=1.0)
            return len(oks) >= 2 and not fails

        proc = sim.process(coordinator())
        assert sim.run(until=proc) is True

    def test_quorum_returns_as_soon_as_met(self, sim):
        net = Network(sim, latency=NoLatency())
        client = RpcNode(net, "client")
        delays = {0: 0.1, 1: 0.2, 2: 5.0}
        for i in range(3):
            server = RpcNode(net, f"s{i}")

            def make(i=i):
                def handler(src, args):
                    ev = sim.event()
                    sim.schedule_callback(delays[i], lambda: ev.succeed(i))
                    return ev
                return handler

            server.register("op", make())

        def coordinator():
            events = [client.call_async(f"s{i}", "op", None) for i in range(3)]
            oks, _ = yield quorum(sim, events, needed=2, timeout=10.0)
            return sim.now, len(oks)

        proc = sim.process(coordinator())
        when, count = sim.run(until=proc)
        assert when == pytest.approx(0.2), "must not wait for the slow third replica"
        assert count == 2

    def test_quorum_timeout(self, sim, net):
        client = RpcNode(net, "client")
        # No servers exist at all.
        def coordinator():
            events = [client.call_async(f"s{i}", "op", None) for i in range(3)]
            with pytest.raises(RpcTimeout):
                yield quorum(sim, events, needed=2, timeout=0.5)
            return sim.now

        proc = sim.process(coordinator())
        assert sim.run(until=proc) == pytest.approx(0.5)

    def test_quorum_unreachable_fails_fast(self, sim, net):
        client = self._fanout(
            sim, net, 3,
            lambda i: (lambda src, args: (_ for _ in ()).throw(RpcRejected("no"))))

        def coordinator():
            events = [client.call_async(f"s{i}", "op", None) for i in range(3)]
            with pytest.raises(RpcError):
                yield quorum(sim, events, needed=2, timeout=10.0)
            return sim.now

        proc = sim.process(coordinator())
        # Fails as soon as 2 of 3 refused, far before the 10 s deadline.
        assert sim.run(until=proc) < 1.0

    def test_quorum_tolerates_minority_failures(self, sim, net):
        def handler_for(i):
            if i == 0:
                def bad(src, args):
                    raise RpcRejected("broken")
                return bad
            return lambda src, args: f"v{i}"

        client = self._fanout(sim, net, 3, handler_for)

        def coordinator():
            events = [client.call_async(f"s{i}", "op", None) for i in range(3)]
            oks, fails = yield quorum(sim, events, needed=2, timeout=1.0)
            return sorted(value for _name, value in oks), len(fails)

        proc = sim.process(coordinator())
        oks, nfails = sim.run(until=proc)
        assert oks == ["v1", "v2"]
        assert nfails <= 1
