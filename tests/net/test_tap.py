"""Tests for the network tap, plus protocol-cost assertions built on it."""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.net.tap import NetworkTap


def sink(_msg):
    """Handler of an endpoint whose deliveries the test does not read."""


class TestTapBasics:
    def test_records_requests_and_responses(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        tap = NetworkTap(net)
        client = RpcNode(net, "c")
        server = RpcNode(net, "s")
        server.register("echo", lambda src, args: args)

        def go():
            yield from client.call("s", "echo", 1, timeout=1.0)

        sim.process(go())
        sim.run()
        assert tap.count(kind="req", method="echo") == 1
        assert tap.count(kind="resp") == 1

    def test_pass_through_never_drops(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        NetworkTap(net)
        got = []
        a = net.endpoint("a", sink)
        net.endpoint("b", lambda m: got.append(m.payload))
        a.send("b", "x")
        sim.run()
        assert got == ["x"] and net.dropped == 0

    def test_detach_and_clear(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        tap = NetworkTap(net)
        a = net.endpoint("a", sink)
        net.endpoint("b", sink)
        a.send("b", {"kind": "req", "id": 1, "method": "m", "args": None})
        tap.clear()
        tap.detach()
        a.send("b", {"kind": "req", "id": 2, "method": "m", "args": None})
        sim.run()
        assert tap.records == []

    def test_predicate_filters(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        tap = NetworkTap(net, predicate=lambda r: r.dst == "b")
        a = net.endpoint("a", sink)
        net.endpoint("b", sink)
        net.endpoint("c", sink)
        a.send("b", "to-b")
        a.send("c", "to-c")
        sim.run()
        assert tap.count(dst="b") == 1
        assert tap.count(dst="c") == 0
        assert tap.count() == 1

    def test_between_is_bidirectional(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        tap = NetworkTap(net)
        a, b = net.endpoint("a", sink), net.endpoint("b", sink)
        net.endpoint("c", sink)
        a.send("b", "fwd")
        b.send("a", "back")
        a.send("c", "other")
        sim.run()
        pair = tap.between("a", "b")
        assert [(r.src, r.dst) for r in pair] == [("a", "b"), ("b", "a")]
        assert tap.between("b", "a") == pair

    def test_reset_starts_fresh_window(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        tap = NetworkTap(net)
        a = net.endpoint("a", sink)
        net.endpoint("b", sink)
        a.send("b", "one")
        a.send("b", "two")
        sim.run()
        assert tap.reset() == 2
        a.send("b", "three")
        sim.run()
        assert len(tap.records) == 1
        assert tap.reset() == 1
        assert tap.records == []


class TestTraceSlicing:
    def test_tap_slices_traffic_per_request_trace(self):
        from repro.obs import Observability
        obs = Observability()
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=16), obs=obs)
        cluster.start()
        client = cluster.client("t")
        tap = NetworkTap(cluster.network)

        def go():
            yield from client.write_latest("k", "v")
            yield from client.read_latest("k")
            return True

        cluster.run(go())
        tap.detach()
        trace_ids = sorted({r.trace for r in tap.records
                            if r.trace is not None})
        assert len(trace_ids) == 2, "one trace per client op"
        write_tr, read_tr = trace_ids
        # Each request's remote fan-out is attributed to its own trace
        # (the coordinator is itself one of the 3 replicas, so 2 of the
        # replica ops cross the network per request).
        assert tap.count(kind="req", method="replica.write",
                         trace=write_tr) == 2
        assert tap.count(kind="req", method="replica.write",
                         trace=read_tr) == 0
        assert tap.count(kind="req", method="replica.read",
                         trace=read_tr) == 2
        assert len(tap.for_trace(write_tr)) == tap.count(trace=write_tr)


class TestProtocolCosts:
    """The tap proves the paper's message-economy claims."""

    @pytest.fixture(scope="class")
    def world(self):
        cluster = SednaCluster(n_nodes=4, zk_size=3,
                               config=SednaConfig(num_vnodes=32))
        cluster.start()
        client = cluster.smart_client("cost")

        def connect():
            yield from client.connect()
            return True

        cluster.run(connect())
        return cluster, client

    def test_one_write_costs_exactly_n_replica_messages(self, world):
        cluster, client = world
        tap = NetworkTap(cluster.network)

        def one_write():
            yield from client.write_latest("cost-key", "v")
            return True

        cluster.run(one_write())
        tap.detach()
        writes = tap.count(kind="req", method="replica.write")
        assert writes == 3, (
            "a zero-hop quorum write is exactly N=3 replica requests, "
            f"saw {writes}")

    def test_one_read_costs_exactly_n_replica_messages(self, world):
        cluster, client = world
        tap = NetworkTap(cluster.network)

        def one_read():
            yield from client.read_latest("cost-key")
            return True

        cluster.run(one_read())
        tap.detach()
        assert tap.count(kind="req", method="replica.read") == 3

    def test_steady_state_ops_never_touch_zookeeper(self, world):
        """§III.E: 'mostly Sedna read the information from ZooKeeper
        service instead of writing' — and with a warm cache, reads and
        writes touch ZooKeeper not at all."""
        cluster, client = world
        tap = NetworkTap(cluster.network,
                         predicate=lambda r: r.dst.startswith("zk")
                         and r.kind == "req"
                         and r.src.startswith("cost"))

        def workload():
            for i in range(20):
                yield from client.write_latest(f"ss{i}", i)
                yield from client.read_latest(f"ss{i}")
            return True

        cluster.run(workload())
        tap.detach()
        zk_data_ops = tap.select(method="zk.read") \
            + tap.select(method="zk.write")
        assert zk_data_ops == [], (
            f"steady-state KV traffic leaked to ZooKeeper: {zk_data_ops}")
