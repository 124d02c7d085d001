"""Tests for atomic multi transactions in the ZooKeeper substrate."""

import pytest

from repro.net.latency import LanGigabit
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.zk.client import SessionExpired
from repro.zk.ensemble import ZkEnsemble
from repro.zk.znode import NodeExistsError, NoNodeError, ZkError


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, latency=LanGigabit(seed=8))
    ens = ZkEnsemble(sim, net, size=3)
    ens.start()
    return sim, ens


def run(sim, ens, script, name="cli"):
    zk = ens.client(name)

    def main():
        yield from zk.connect()
        return (yield from script(zk))

    proc = sim.process(main())
    return sim.run(until=proc)


class TestMulti:
    def test_all_steps_apply(self, world):
        sim, ens = world

        def script(zk):
            results = yield from zk.multi([
                zk.op_create("/a", b"1"),
                zk.op_create("/a/b", b"2"),
                zk.op_set("/a", b"1x"),
            ])
            data, _ = yield from zk.get("/a")
            return len(results), data

        count, data = run(sim, ens, script)
        assert count == 3 and data == b"1x"

    def test_failure_rolls_back_everything(self, world):
        sim, ens = world

        def script(zk):
            yield from zk.create("/exists", b"")
            try:
                yield from zk.multi([
                    zk.op_create("/new", b""),
                    zk.op_create("/exists", b""),  # fails: NodeExists
                ])
            except ZkError:
                pass
            else:
                return "multi should have failed"
            return (yield from zk.exists("/new"))

        assert run(sim, ens, script) is None, "first step must roll back"

    def test_version_check_aborts_txn(self, world):
        sim, ens = world

        def script(zk):
            yield from zk.create("/v", b"0")
            yield from zk.set("/v", b"1")  # version now 1
            try:
                yield from zk.multi([
                    zk.op_set("/v", b"2", version=0),  # stale version
                    zk.op_create("/side-effect", b""),
                ])
            except ZkError:
                pass
            side = yield from zk.exists("/side-effect")
            data, _ = yield from zk.get("/v")
            return side, data

        side, data = run(sim, ens, script)
        assert side is None and data == b"1"

    def test_multi_delete_and_create(self, world):
        sim, ens = world

        def script(zk):
            yield from zk.create("/old", b"")
            yield from zk.multi([
                zk.op_delete("/old"),
                zk.op_create("/renamed", b""),
            ])
            old = yield from zk.exists("/old")
            new = yield from zk.exists("/renamed")
            return old, new

        old, new = run(sim, ens, script)
        assert old is None and new is not None

    def test_multi_replicates_to_followers(self, world):
        sim, ens = world

        def script(zk):
            yield from zk.multi([
                zk.op_create("/m1", b""),
                zk.op_create("/m2", b""),
            ])
            return True

        run(sim, ens, script)
        sim.run(until=sim.now + 1.0)
        for server in ens.servers:
            assert server.tree.exists("/m1") is not None
            assert server.tree.exists("/m2") is not None

    @pytest.mark.parametrize("steps", [
        lambda zk: [zk.op_create("/ghost", b""), zk.op_create("/clash", b"")],
        # The join boot's hot case: the first step loses its version race.
        lambda zk: [zk.op_set("/clash", b"x", version=5),
                    zk.op_create("/q/log-", b"", sequential=True)],
        lambda zk: [zk.op_create("/q/log-", b"", sequential=True),
                    zk.op_create("/clash", b"")],
        lambda zk: [zk.op_create("/eph2", b"", ephemeral=True),
                    zk.op_create("/clash", b"")],
        lambda zk: [zk.op_set("/clash", b"x"), zk.op_create("/clash", b"")],
        lambda zk: [zk.op_delete("/q/eph"), zk.op_delete("/clash"),
                    zk.op_delete("/clash")],
    ], ids=["after-create", "first-step", "after-sequential",
            "after-ephemeral", "after-set", "after-delete"])
    def test_aborted_multi_leaves_followers_consistent(self, world, steps):
        sim, ens = world

        def setup(zk):
            yield from zk.create("/clash", b"")
            yield from zk.create("/q", b"")
            yield from zk.create("/q/eph", b"", ephemeral=True)
            yield from zk.create("/q/log-", b"", sequential=True)

        def abort(zk):
            with pytest.raises(ZkError):
                yield from zk.multi(steps(zk))

        run(sim, ens, setup)
        sim.run(until=sim.now + 1.0)
        before = [(s.tree, s.tree.dump()) for s in ens.servers]
        run(sim, ens, abort, name="cli2")
        sim.run(until=sim.now + 1.0)
        # Every member applied (and undid) the multi, not just the leader.
        assert all(s.applied_zxid == ens.leader().applied_zxid
                   for s in ens.servers)
        for server, (tree, dump) in zip(ens.servers, before):
            # Rolled back in place: no member swaps its tree for a
            # snapshot, and a later zk.sync_req reply sizes the same.
            assert server.tree is tree
            assert server.tree.dump() == dump == before[0][1]

    def test_ephemeral_in_multi_needs_a_live_session(self, world):
        """An expired session cannot leave an ephemeral behind through a
        multi, any more than through a plain create."""
        sim, ens = world

        def script(zk):
            # The leader forgets the session; the client does not know.
            yield from zk._call("zk.close", {"session": zk.session_id})
            with pytest.raises(SessionExpired):
                yield from zk.multi([zk.op_create("/p", b""),
                                     zk.op_create("/e", b"", ephemeral=True)])
            # Nothing ephemeral in it: still fine without a session.
            yield from zk.multi([zk.op_create("/p", b"")])

        run(sim, ens, script)
        sim.run(until=sim.now + 1.0)
        for server in ens.servers:
            assert sorted(server.tree.walk_paths()) == ["/p"]
            assert server.tree.dump()["ephemerals"] == {}

    def test_watches_fire_only_on_commit(self, world):
        sim, ens = world
        events = []

        def script(zk):
            yield from zk.create("/w", b"")
            yield from zk.get("/w", watch=events.append)
            try:
                yield from zk.multi([
                    zk.op_set("/w", b"x"),
                    zk.op_create("/w", b""),  # fails -> rollback
                ])
            except ZkError:
                pass
            yield sim.timeout(0.5)
            aborted_events = len(events)
            yield from zk.multi([zk.op_set("/w", b"y")])
            yield sim.timeout(0.5)
            return aborted_events, len(events)

        aborted, committed = run(sim, ens, script)
        assert aborted == 0, "rolled-back txn must not fire watches"
        assert committed == 1

    def test_sequential_in_multi(self, world):
        sim, ens = world

        def script(zk):
            yield from zk.create("/q", b"")
            results = yield from zk.multi([
                zk.op_create("/q/item-", b"", sequential=True),
                zk.op_create("/q/item-", b"", sequential=True),
            ])
            return [r["path"] for r in results]

        paths = run(sim, ens, script)
        assert paths == ["/q/item-0000000000", "/q/item-0000000001"]
