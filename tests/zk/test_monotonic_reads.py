"""Session-level monotonic reads across ensemble members.

A client carries the newest ``(epoch, zxid)`` frontier any read has
observed and sends it with every read.  A member whose applied state is
behind that frontier refuses with ``server-behind``; the client rotates
to a caught-up member.  Without this, rotating to a lagging follower
mid-refresh can "un-happen" state the client already saw — the exact
failure that made a cache refresh treat a freshly created changelog
entry as trimmed.
"""

import pytest

from repro.net.latency import NoLatency
from repro.net.rpc import RpcRejected, unsized
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.zk.ensemble import ZkEnsemble


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, latency=NoLatency())
    ens = ZkEnsemble(sim, net, size=3)
    ens.start()
    return sim, ens


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


class TestServerSideRejection:
    def test_lagging_member_refuses_ahead_frontier(self, world):
        sim, ens = world
        leader = ens.leader()
        with pytest.raises(RpcRejected) as exc:
            leader._h_read("probe", {
                "op": "get", "path": "/",
                "epoch": leader.epoch,
                "zxid": leader.applied_zxid + 1,
            })
        assert exc.value.reason == "server-behind"

    def test_newer_epoch_dominates_zxid(self, world):
        """(epoch, zxid) compares as a tuple: a member in a newer epoch
        serves a client whose zxid is numerically higher but was earned
        under a deposed reign."""
        sim, ens = world
        leader = ens.leader()
        leader.epoch += 1  # pretend an election advanced the epoch
        result = unsized(leader._h_read("probe", {
            "op": "exists", "path": "/nope",
            "epoch": leader.epoch - 1,
            "zxid": leader.applied_zxid + 100,
        }))
        assert result["epoch"] == leader.epoch

    def test_reads_carry_the_frontier(self, world):
        sim, ens = world
        leader = ens.leader()
        result = unsized(leader._h_read("probe", {"op": "get", "path": "/"}))
        assert result["epoch"] == leader.epoch
        assert result["zxid"] == leader.applied_zxid


class TestClientFrontier:
    def test_frontier_advances_with_reads(self, world):
        sim, ens = world
        zk = ens.client("c")

        def main():
            yield from zk.connect()
            for i in range(4):
                yield from zk.create(f"/mono{i}", b"")
            yield from zk.get("/mono3")
            return zk.last_epoch, zk.last_zxid

        epoch, zxid = run(sim, main())
        assert (epoch, zxid) == (ens.leader().epoch,
                                 ens.leader().applied_zxid)
        assert zxid >= 4

    def test_frontier_never_regresses(self, world):
        sim, ens = world
        zk = ens.client("c")

        def main():
            yield from zk.connect()
            yield from zk.create("/keep", b"x")
            yield from zk.get("/keep")
            high = (zk.last_epoch, zk.last_zxid)
            # A stale reply (older frontier) must not move us backwards.
            zk._advance_frontier({"epoch": 0, "zxid": 0})
            return high, (zk.last_epoch, zk.last_zxid)

        high, after = run(sim, main())
        assert after == high


class TestClientRotation:
    def test_rotates_off_behind_member_and_succeeds(self, world):
        """A read pinned at a member that answers ``server-behind``
        completes anyway: the client rotates to a caught-up member
        instead of surfacing stale state or an error."""
        sim, ens = world
        zk = ens.client("c")
        writer = ens.client("w")

        def main():
            yield from writer.connect()
            yield from zk.connect()
            yield from writer.create("/fresh", b"payload")
            yield from zk.get("/fresh")  # adopt the current frontier
            # Pin to a follower and force it to act permanently behind
            # (handlers are registered as bound methods, so patch the
            # dispatch table).
            lagged = ens.server(zk.servers[1])

            def refuse(src, args):
                raise RpcRejected("server-behind")

            lagged.rpc.register("zk.read", refuse)
            zk._server_idx = 1
            before_retries = zk.retries
            data, _stat = yield from zk.get("/fresh")
            return data, zk.retries - before_retries, zk.current_server()

        data, retries, server = run(sim, main())
        assert data == b"payload"
        assert retries >= 1, "client rotated off the behind member"
        assert server != zk.servers[1]

    def test_behind_member_everywhere_eventually_raises(self, world):
        """If every member refuses (frontier unreachable anywhere), the
        client surfaces the rejection after exhausting its rotation
        budget rather than spinning forever."""
        sim, ens = world
        zk = ens.client("c")

        def main():
            yield from zk.connect()
            zk.last_epoch = ens.leader().epoch
            zk.last_zxid = 10 ** 9  # impossible frontier
            try:
                yield from zk.get("/")
            except RpcRejected as rej:
                return rej.reason
            return "no-error"

        assert run(sim, main()) == "server-behind"
