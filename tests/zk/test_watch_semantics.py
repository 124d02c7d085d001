"""Documented watch semantics: per-server registration and its limits.

ZooKeeper watches live on the member the client registered them with;
these tests pin the behaviours a Sedna operator must know (and which
motivate §III.E's decision not to build the mapping cache on watches).
"""

import pytest

from repro.net.latency import LanGigabit
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.zk.ensemble import ZkEnsemble


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, latency=LanGigabit(seed=21))
    ens = ZkEnsemble(sim, net, size=3)
    ens.start()
    return sim, ens


class TestWatchSemantics:
    def test_watch_fires_from_follower_registration(self, world):
        sim, ens = world
        events = []
        zk = ens.client("w")
        zk._server_idx = 1  # register via a follower

        def main():
            yield from zk.connect()
            yield from zk.create("/watched", b"")
            yield from zk.get("/watched", watch=events.append)
            yield from zk.set("/watched", b"new")
            yield sim.timeout(1.0)
            return len(events)

        proc = sim.process(main())
        assert sim.run(until=proc) == 1

    def test_watch_lost_when_registration_server_dies(self, world):
        """The documented limitation: a watch registered on a member
        that crashes is gone — clients must re-register after moving.
        (Sedna's lease+changelog cache needs no such re-registration,
        one of the §III.E arguments.)"""
        sim, ens = world
        events = []
        zk = ens.client("w")
        zk._server_idx = 2  # register on follower zk2

        def main():
            yield from zk.connect()
            yield from zk.create("/frail", b"")
            yield from zk.get("/frail", watch=events.append)
            ens.crash("zk2")
            yield sim.timeout(0.5)
            # The write goes through the surviving majority.
            yield from zk.set("/frail", b"changed")
            yield sim.timeout(1.0)
            return len(events)

        proc = sim.process(main())
        assert sim.run(until=proc) == 0, (
            "watch died with its server; silence is the documented "
            "behaviour")

    def test_watch_counts_bounded_by_registrations(self, world):
        sim, ens = world
        zk = ens.client("w")

        def main():
            yield from zk.connect()
            yield from zk.create("/multi", b"")
            fired = []
            # Two watches on the same node from one client: both fire
            # once on the first change, none on the second.
            yield from zk.get("/multi", watch=fired.append)
            yield from zk.get("/multi", watch=fired.append)
            yield from zk.set("/multi", b"1")
            yield sim.timeout(0.5)
            after_first = len(fired)
            yield from zk.set("/multi", b"2")
            yield sim.timeout(0.5)
            return after_first, len(fired)

        proc = sim.process(main())
        after_first, total = sim.run(until=proc)
        assert after_first == 2 and total == 2

    def test_get_watch_fires_on_delete(self, world):
        sim, ens = world
        events = []
        zk = ens.client("w")

        def main():
            yield from zk.connect()
            yield from zk.create("/gone", b"")
            yield from zk.get("/gone", watch=events.append)
            yield from zk.delete("/gone")
            yield sim.timeout(0.5)
            return events

        proc = sim.process(main())
        assert sim.run(until=proc) == [{"type": "deleted", "path": "/gone"}]
