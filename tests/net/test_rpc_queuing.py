"""Tests for the RPC server's single service queue (Fig. 8 substrate)."""

import pytest

from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode, RpcRejected
from repro.net.simulator import AllOf, Simulator
from repro.net.transport import Network


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, latency=NoLatency())
    return sim, net


class TestServiceQueue:
    def test_sequential_requests_pay_service_each(self, world):
        sim, net = world
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=0.01)
        server.register("op", lambda src, args: "ok")

        def caller():
            for _ in range(5):
                yield from client.call("s", "op", None, timeout=1.0)
            return sim.now

        proc = sim.process(caller())
        assert sim.run(until=proc) == pytest.approx(0.05)

    def test_concurrent_requests_queue(self, world):
        """Ten simultaneous requests: completions spaced by the service
        time, total = 10 * service (an M/D/1 busy period)."""
        sim, net = world
        server = RpcNode(net, "s", service_time=0.01)
        server.register("op", lambda src, args: "ok")
        completions = []

        def one_client(i):
            client = RpcNode(net, f"c{i}")
            yield from client.call("s", "op", None, timeout=5.0)
            completions.append(sim.now)

        procs = [sim.process(one_client(i)) for i in range(10)]
        sim.run(until=AllOf(sim, procs))
        assert completions[-1] == pytest.approx(0.10)
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        assert all(g == pytest.approx(0.01) for g in gaps)

    def test_queue_drains_then_idles(self, world):
        """After a burst the queue empties; later requests start fresh
        (no phantom backlog)."""
        sim, net = world
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=0.01)
        server.register("op", lambda src, args: "ok")

        def caller():
            yield from client.call("s", "op", None, timeout=1.0)
            yield sim.timeout(1.0)  # long idle gap
            t0 = sim.now
            yield from client.call("s", "op", None, timeout=1.0)
            return sim.now - t0

        proc = sim.process(caller())
        assert sim.run(until=proc) == pytest.approx(0.01)

    def test_zero_service_time_is_instant(self, world):
        sim, net = world
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=0.0)
        server.register("op", lambda src, args: "ok")

        def caller():
            yield from client.call("s", "op", None, timeout=1.0)
            return sim.now

        proc = sim.process(caller())
        assert sim.run(until=proc) == 0.0

    def test_utilization_slowdown_shape(self, world):
        """The Fig. 8 mechanism in miniature: per-client latency rises
        as offered load approaches the server's capacity."""
        sim, net = world
        server = RpcNode(net, "s", service_time=0.01)
        server.register("op", lambda src, args: "ok")

        def measure(n_clients, label):
            latencies = []

            def client_loop(i):
                client = RpcNode(net, f"{label}{i}")
                for _ in range(20):
                    t0 = sim.now
                    yield from client.call("s", "op", None, timeout=10.0)
                    latencies.append(sim.now - t0)
                    yield sim.timeout(0.02)  # think time

            procs = [sim.process(client_loop(i)) for i in range(n_clients)]
            sim.run(until=AllOf(sim, procs))
            return sum(latencies) / len(latencies)

        solo = measure(1, "solo")
        crowd = measure(4, "crowd")
        assert crowd > solo, (
            f"contention must raise latency: {crowd} vs {solo}")


class TestServePath:
    """What a request sees between delivery and reply: the handler is
    looked up, the server's liveness checked and the reply sized when
    the request executes, not when it arrives."""

    def test_handler_swapped_while_queued_runs_the_new_one(self, world):
        sim, net = world
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=0.01)
        server.register("op", lambda src, args: "old")
        first = client.call_async("s", "op", None)
        second = client.call_async("s", "op", None)
        sim.run(until=0.015)    # first served; second still queued
        assert first.value == "old" and not second.triggered
        server.register("op", lambda src, args: "new")
        sim.run()
        assert second.value == "new"

    def test_crash_between_queueing_and_execution_sends_no_reply(self, world):
        sim, net = world
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=0.01)
        ran = []
        server.register("op", lambda src, args: ran.append(args))
        done = client.call_async("s", "op", "queued")
        sim.schedule_callback(0.005, server.endpoint.crash)
        sim.run()
        # The request was already inside the server: it executes, but a
        # dead endpoint says nothing.
        assert ran == ["queued"] and not done.triggered
        assert server.endpoint.sent_bytes == 0

    @pytest.mark.parametrize("service_time", [0.0, 0.01])
    def test_reply_payload_and_size_per_handler_outcome(self, world,
                                                        service_time):
        sim, net = world
        client = RpcNode(net, "c")
        server = RpcNode(net, "s", service_time=service_time)
        replies = []
        net.add_filter(lambda src, dst, payload: (
            replies.append(payload) if src == "s" else None) or True)
        pending = sim.event()
        failing = sim.event()

        def reject(src, args):
            raise RpcRejected("not-owner")

        server.register("fired", lambda src, args: sim.event().succeed(
            {"rows": [1, 2]}))
        server.register("pending", lambda src, args: pending)
        server.register("failing", lambda src, args: failing)
        server.register("reject", reject)
        calls = [client.call_async("s", m, None)
                 for m in ("fired", "pending", "failing", "reject", "absent")]
        sim.schedule_callback(0.1, lambda: pending.succeed("late"))
        sim.schedule_callback(0.2, lambda: failing.fail(ValueError("boom")))
        sim.run()
        assert sorted(replies, key=lambda p: p["id"]) == [
            {"kind": "resp", "id": 1, "status": "ok",
             "result": {"rows": [1, 2]}},
            {"kind": "resp", "id": 2, "status": "ok", "result": "late"},
            {"kind": "resp", "id": 3, "status": "refuse",
             "result": "ValueError('boom')"},
            {"kind": "resp", "id": 4, "status": "refuse",
             "result": "not-owner"},
            {"kind": "resp", "id": 5, "status": "refuse",
             "result": "no-such-method:absent"},
        ]
        # Envelope 8 + 18 B of keys + "resp" + id; then status and result:
        # ok + {rows: [1, 2]} (8+4+8+16), ok + late, and three refusals.
        assert server.endpoint.sent_bytes == 5 * 38 + (
            2 + 36) + (2 + 4) + (6 + 18) + (6 + 9) + (6 + 21)
        assert [c.ok for c in calls] == [True, True, False, False, False]
        assert calls[3].value.reason == "not-owner"
