"""Unit tests for failure injection."""

import pytest

from repro.net.failure import FailureInjector, MessageLoss, Partition
from repro.net.latency import NoLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def net(sim):
    return Network(sim, latency=NoLatency())


def wire(net, names):
    boxes = {}
    for name in names:
        inbox = []
        net.endpoint(name, lambda m, inbox=inbox: inbox.append(m.payload))
        boxes[name] = inbox
    return boxes


class TestPartition:
    def test_partition_cuts_both_directions(self, sim, net):
        boxes = wire(net, ["a", "b"])
        Partition(net, ["a"], ["b"])
        net.endpoints["a"].send("b", "ab")
        net.endpoints["b"].send("a", "ba")
        sim.run()
        assert boxes["a"] == [] and boxes["b"] == []

    def test_traffic_within_group_unaffected(self, sim, net):
        boxes = wire(net, ["a1", "a2", "b"])
        Partition(net, ["a1", "a2"], ["b"])
        net.endpoints["a1"].send("a2", "intra")
        sim.run()
        assert boxes["a2"] == ["intra"]

    def test_heal_restores(self, sim, net):
        boxes = wire(net, ["a", "b"])
        part = Partition(net, ["a"], ["b"])
        net.endpoints["a"].send("b", "lost")
        part.heal()
        assert not part.active
        net.endpoints["a"].send("b", "found")
        sim.run()
        assert boxes["b"] == ["found"]

    def test_double_heal_is_noop(self, sim, net):
        part = Partition(net, ["a"], ["b"])
        part.heal()
        part.heal()  # must not raise


class TestMessageLoss:
    def test_rate_zero_drops_nothing(self, sim, net):
        boxes = wire(net, ["a", "b"])
        MessageLoss(net, 0.0)
        for i in range(50):
            net.endpoints["a"].send("b", i)
        sim.run()
        assert len(boxes["b"]) == 50

    def test_rate_one_drops_everything(self, sim, net):
        boxes = wire(net, ["a", "b"])
        loss = MessageLoss(net, 1.0)
        for i in range(50):
            net.endpoints["a"].send("b", i)
        sim.run()
        assert boxes["b"] == [] and loss.dropped == 50

    def test_partial_loss_deterministic(self, sim):
        def run(seed):
            s = Simulator()
            n = Network(s, latency=NoLatency())
            boxes = wire(n, ["a", "b"])
            MessageLoss(n, 0.3, seed=seed)
            for i in range(100):
                n.endpoints["a"].send("b", i)
            s.run()
            return boxes["b"]

        assert run(9) == run(9)
        assert 40 <= len(run(9)) <= 95

    def test_scope_restricts_loss(self, sim, net):
        boxes = wire(net, ["a", "b", "c"])
        MessageLoss(net, 1.0, scope=["c"])
        net.endpoints["a"].send("b", "safe")
        net.endpoints["a"].send("c", "doomed")
        sim.run()
        assert boxes["b"] == ["safe"] and boxes["c"] == []

    def test_invalid_rate_rejected(self, net):
        with pytest.raises(ValueError):
            MessageLoss(net, 1.5)

    def test_stop(self, sim, net):
        boxes = wire(net, ["a", "b"])
        loss = MessageLoss(net, 1.0)
        loss.stop()
        net.endpoints["a"].send("b", "x")
        sim.run()
        assert boxes["b"] == ["x"]


class TestFailureInjector:
    def test_crash_restart(self, sim, net):
        boxes = wire(net, ["a", "b"])
        inj = FailureInjector(net)
        inj.crash("b")
        net.endpoints["a"].send("b", "lost")
        sim.run()
        inj.restart("b")
        net.endpoints["a"].send("b", "ok")
        sim.run()
        assert boxes["b"] == ["ok"]

    def test_unknown_name_raises(self, sim, net):
        """A mistyped name is an error, not a new endpoint that nothing
        sends to."""
        wire(net, ["node0"])
        inj = FailureInjector(net)
        with pytest.raises(KeyError):
            inj.crash("nod0")
        with pytest.raises(KeyError):
            inj.restart("nod0")
        assert list(net.endpoints) == ["node0"]
        assert net.endpoints["node0"].up

    def test_heal_all(self, sim, net):
        boxes = wire(net, ["a", "b", "c"])
        inj = FailureInjector(net)
        inj.partition(["a"], ["b"])
        inj.partition(["a"], ["c"])
        inj.heal_all()
        net.endpoints["a"].send("b", "1")
        net.endpoints["a"].send("c", "2")
        sim.run()
        assert boxes["b"] == ["1"] and boxes["c"] == ["2"]
