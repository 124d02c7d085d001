"""Unit tests for the simulated transport and latency models."""

import pytest

from repro.net.latency import LanGigabit, NoLatency, UniformLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network, estimate_size


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, latency=NoLatency())


def ignore(_msg):
    """Handler of an endpoint that only sends."""


def inbox(net, name):
    """An endpoint recording every message pushed to it."""
    got = []
    return net.endpoint(name, got.append), got


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(3) == 8
        assert estimate_size(2.5) == 8
        assert estimate_size("abcd") == 4
        assert estimate_size(b"abcd") == 4

    def test_containers_recurse(self):
        assert estimate_size(["ab", "cd"]) == 8 + 2 + 2
        assert estimate_size({"k": "vv"}) == 8 + 1 + 2

    def test_deep_nesting_bounded(self):
        deep = "x"
        for _ in range(20):
            deep = [deep]
        # Seven walked levels at 8 B each; the eighth list is cut off:
        # 8 B plus 16 B for its one item, whatever is below it.
        assert estimate_size(deep) == 7 * 8 + 8 + 16


class TestLatencyModels:
    def test_no_latency(self):
        assert NoLatency().delay(10_000) == 0.0

    def test_lan_gigabit_sub_millisecond_for_small_messages(self):
        model = LanGigabit(seed=1)
        delays = [model.delay(100) for _ in range(100)]
        assert all(0.0 < d < 0.001 for d in delays), "paper: sub-ms RTT"

    def test_bandwidth_term_grows_with_size(self):
        model = LanGigabit(jitter=0.0)
        assert model.delay(1_000_000) > model.delay(100) + 0.005

    def test_jitter_deterministic_per_seed(self):
        a = [LanGigabit(seed=5).delay(10) for _ in range(10)]
        b = [LanGigabit(seed=5).delay(10) for _ in range(10)]
        assert a == b

    def test_uniform_latency_range(self):
        model = UniformLatency(propagation=0.01, jitter=0.005, seed=3)
        for _ in range(50):
            d = model.delay(10**9)  # size irrelevant
            assert 0.01 <= d <= 0.015


class TestEndpointMessaging:
    def test_send_and_receive(self, sim, net):
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        a.send("b", {"hello": 1})
        sim.run()
        assert [(m.src, m.dst, m.payload) for m in got] == \
            [("a", "b", {"hello": 1})]

    def test_push_handler(self, sim, net):
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        a.send("b", "one")
        a.send("b", "two")
        sim.run()
        assert [m.payload for m in got] == ["one", "two"]

    def test_latency_applied(self, sim):
        net = Network(sim, latency=UniformLatency(propagation=0.25, jitter=0.0))
        a = net.endpoint("a", ignore)
        arrivals = []
        net.endpoint("b", lambda m: arrivals.append((sim.now, m.delivered_at)))
        a.send("b", "x")
        sim.run()
        ((now, delivered),) = arrivals
        assert now == pytest.approx(0.25)
        assert delivered == pytest.approx(0.25)

    def test_message_ordering_preserved_fixed_latency(self, sim):
        net = Network(sim, latency=UniformLatency(propagation=0.1, jitter=0.0))
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        for i in range(10):
            a.send("b", i)
        sim.run()
        assert [m.payload for m in got] == list(range(10))

    def test_send_to_unknown_endpoint_drops(self, sim, net):
        a = net.endpoint("a", ignore)
        a.send("ghost", "x")
        sim.run()
        assert net.dropped == 1

    def test_counters(self, sim, net):
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        a.send("b", "xyz")
        sim.run()
        assert a.sent_bytes == 3 and net.delivered == 1
        assert [m.size for m in got] == [3]


class TestEndpointNames:
    def test_taken_name_raises(self, sim, net):
        """A second endpoint under a name would take the first one's
        messages: creating it raises, and the first keeps its handler."""
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        with pytest.raises(ValueError, match="taken"):
            net.endpoint("b", ignore)
        a.send("b", "still mine")
        sim.run()
        assert [m.payload for m in got] == ["still mine"]

    def test_lookup_does_not_create(self, sim, net):
        net.endpoint("a", ignore)
        assert net.endpoints["a"].name == "a"
        with pytest.raises(KeyError):
            net.endpoints["ghost"]
        assert list(net.endpoints) == ["a"]


class TestCrash:
    def test_crashed_endpoint_drops_incoming(self, sim, net):
        a = net.endpoint("a", ignore)
        b, got = inbox(net, "b")
        b.crash()
        a.send("b", "lost")
        sim.run()
        assert got == [] and net.dropped == 1

    def test_crashed_endpoint_cannot_send(self, sim, net):
        a = net.endpoint("a", ignore)
        net.endpoint("b", ignore)
        a.crash()
        with pytest.raises(RuntimeError):
            a.send("b", "x")

    def test_restart_resumes_delivery(self, sim, net):
        a = net.endpoint("a", ignore)
        b, got = inbox(net, "b")
        b.crash()
        a.send("b", "lost")
        sim.run()
        b.restart()
        a.send("b", "found")
        sim.run()
        assert [m.payload for m in got] == ["found"]

    def test_message_in_flight_to_crashing_node_lost(self, sim):
        net = Network(sim, latency=UniformLatency(propagation=1.0, jitter=0.0))
        a = net.endpoint("a", ignore)
        b, got = inbox(net, "b")
        a.send("b", "inflight")
        sim.schedule_callback(0.5, b.crash)
        sim.run()
        assert got == []
        assert net.delivered == 0 and net.dropped == 1


class TestFilters:
    def test_filter_drops(self, sim, net):
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        net.add_filter(lambda src, dst, payload: payload != "bad")
        a.send("b", "bad")
        a.send("b", "good")
        sim.run()
        assert [m.payload for m in got] == ["good"]
        assert net.dropped == 1

    def test_filter_removal(self, sim, net):
        a = net.endpoint("a", ignore)
        _b, got = inbox(net, "b")
        flt = lambda src, dst, payload: False
        net.add_filter(flt)
        a.send("b", "x")
        net.remove_filter(flt)
        a.send("b", "y")
        sim.run()
        assert [m.payload for m in got] == ["y"]
