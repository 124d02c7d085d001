"""Integration tests: ZooKeeper ensemble + client over the simulated net."""

import pytest

from repro.net.latency import LanGigabit
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.zk.client import SessionExpired
from repro.zk.ensemble import ZkEnsemble
from repro.zk.server import ZkConfig
from repro.zk.znode import NodeExistsError, NoNodeError


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, latency=LanGigabit(seed=42))
    ens = ZkEnsemble(sim, net, size=3)
    ens.start()
    return sim, net, ens


def run_client(sim, ens, script, name="cli"):
    """Run a client script; returns its result."""
    zk = ens.client(name)

    def main():
        yield from zk.connect()
        result = yield from script(zk)
        return result

    proc = sim.process(main())
    return sim.run(until=proc)


class TestBasicOps:
    def test_create_get_roundtrip(self, world):
        sim, _net, ens = world

        def script(zk):
            yield from zk.create("/a", b"hello")
            data, stat = yield from zk.get("/a")
            return data, stat["version"]

        data, version = run_client(sim, ens, script)
        assert data == b"hello" and version == 0

    def test_set_and_version(self, world):
        sim, _net, ens = world

        def script(zk):
            yield from zk.create("/a", b"v0")
            stat = yield from zk.set("/a", b"v1")
            data, _ = yield from zk.get("/a")
            return stat["version"], data

        version, data = run_client(sim, ens, script)
        assert version == 1 and data == b"v1"

    def test_delete_and_exists(self, world):
        sim, _net, ens = world

        def script(zk):
            yield from zk.create("/a", b"")
            before = yield from zk.exists("/a")
            yield from zk.delete("/a")
            after = yield from zk.exists("/a")
            return before is not None, after

        existed, gone = run_client(sim, ens, script)
        assert existed and gone is None

    def test_children_and_sequential(self, world):
        sim, _net, ens = world

        def script(zk):
            yield from zk.create("/q", b"")
            p1 = yield from zk.create("/q/n-", b"", sequential=True)
            p2 = yield from zk.create("/q/n-", b"", sequential=True)
            children = yield from zk.get_children("/q")
            return p1, p2, children

        p1, p2, children = run_client(sim, ens, script)
        assert p1.endswith("0000000000") and p2.endswith("0000000001")
        assert len(children) == 2

    def test_typed_errors_propagate(self, world):
        sim, _net, ens = world

        def script(zk):
            yield from zk.create("/a", b"")
            try:
                yield from zk.create("/a", b"")
            except NodeExistsError:
                pass
            else:
                return "missed NodeExistsError"
            try:
                yield from zk.get("/missing")
            except NoNodeError:
                return "ok"
            return "missed NoNodeError"

        assert run_client(sim, ens, script) == "ok"


class TestReplication:
    def test_all_members_converge(self, world):
        sim, _net, ens = world

        def script(zk):
            for i in range(10):
                yield from zk.create(f"/k{i}", str(i).encode())
            return True

        run_client(sim, ens, script)
        sim.run(until=sim.now + 2.0)  # let commits propagate
        trees = [set(s.tree.walk_paths()) for s in ens.servers]
        assert trees[0] == trees[1] == trees[2]
        assert "/k9" in trees[0]

    def test_reads_work_against_any_member(self, world):
        sim, _net, ens = world

        def writer(zk):
            yield from zk.create("/shared", b"data")
            return True

        run_client(sim, ens, writer, name="writer")
        sim.run(until=sim.now + 1.0)

        # Force a client to talk to a follower.
        zk2 = ens.client("reader")
        zk2._server_idx = 1

        def reader():
            yield from zk2.connect()
            data, _ = yield from zk2.get("/shared")
            return data

        proc = sim.process(reader())
        assert sim.run(until=proc) == b"data"


class TestEphemerals:
    def test_ephemeral_removed_on_session_expiry(self, world):
        sim, _net, ens = world
        zk = ens.client("eph")

        def main():
            yield from zk.connect()
            yield from zk.create("/live", b"", ephemeral=True)
            return True

        proc = sim.process(main())
        sim.run(until=proc)
        assert ens.leader().tree.exists("/live") is not None

        zk.crash()  # pings stop
        sim.run(until=sim.now + 4 * ens.config.session_timeout)
        assert ens.leader().tree.exists("/live") is None

    def test_ephemeral_survives_while_pinging(self, world):
        sim, _net, ens = world
        zk = ens.client("eph")

        def main():
            yield from zk.connect()
            yield from zk.create("/live", b"", ephemeral=True)
            yield sim.timeout(5 * ens.config.session_timeout)
            return (yield from zk.exists("/live")) is not None

        proc = sim.process(main())
        assert sim.run(until=proc) is True

    def test_graceful_close_removes_ephemerals(self, world):
        sim, _net, ens = world
        zk = ens.client("eph")

        def main():
            yield from zk.connect()
            yield from zk.create("/live", b"", ephemeral=True)
            yield from zk.close()
            return True

        proc = sim.process(main())
        sim.run(until=proc)
        sim.run(until=sim.now + 1.0)
        assert ens.leader().tree.exists("/live") is None

    def test_sequential_ephemerals_of_an_expired_session_go(self, world):
        """Sequential ephemerals from two sessions interleave in one
        numbering; an expiry removes only the dead session's, and the
        sequence never reuses their numbers."""
        sim, _net, ens = world
        dying, living = ens.client("dying"), ens.client("living")

        def setup():
            for zk in (dying, living):
                yield from zk.connect()
            yield from living.create("/q", b"")
            made = []
            for zk in (dying, living, dying):
                made.append((yield from zk.create("/q/n-", b"",
                                                  ephemeral=True,
                                                  sequential=True)))
            return made

        made = sim.run(until=sim.process(setup()))
        assert made == ["/q/n-0000000000", "/q/n-0000000001",
                        "/q/n-0000000002"]
        dying.crash()
        sim.run(until=sim.now + 4 * ens.config.session_timeout)

        def after():
            children = yield from living.get_children("/q")
            fresh = yield from living.create("/q/n-", b"", ephemeral=True,
                                             sequential=True)
            return children, fresh

        children, fresh = sim.run(until=sim.process(after()))
        assert children == ["n-0000000001"]
        assert fresh == "/q/n-0000000003"


class TestWatches:
    def test_data_watch_fires_on_set(self, world):
        sim, _net, ens = world
        events = []

        def script(zk):
            yield from zk.create("/w", b"v0")
            yield from zk.get("/w", watch=events.append)
            yield from zk.set("/w", b"v1")
            yield sim.timeout(0.5)
            return events

        got = run_client(sim, ens, script)
        assert len(got) == 1
        assert got[0]["type"] == "changed" and got[0]["path"] == "/w"

    def test_watch_is_one_shot(self, world):
        sim, _net, ens = world
        events = []

        def script(zk):
            yield from zk.create("/w", b"")
            yield from zk.get("/w", watch=events.append)
            yield from zk.set("/w", b"1")
            yield from zk.set("/w", b"2")
            yield sim.timeout(0.5)
            return events

        assert len(run_client(sim, ens, script)) == 1


class TestFailover:
    def test_follower_crash_tolerated(self, world):
        sim, _net, ens = world
        ens.crash("zk2")

        def script(zk):
            yield from zk.create("/a", b"x")
            data, _ = yield from zk.get("/a")
            return data

        assert run_client(sim, ens, script) == b"x"

    def test_leader_crash_triggers_election(self, world):
        sim, _net, ens = world

        def seed(zk):
            yield from zk.create("/before", b"1")
            return True

        run_client(sim, ens, seed, name="seed")
        ens.crash("zk0")
        sim.run(until=sim.now + 5.0)
        leader = ens.leader()
        assert leader is not None and leader.name != "zk0"

        def after(zk):
            yield from zk.create("/after", b"2")
            data, _ = yield from zk.get("/before")
            return data

        assert run_client(sim, ens, after, name="after") == b"1"

    def test_restarted_member_syncs(self, world):
        sim, _net, ens = world

        def seed(zk):
            for i in range(5):
                yield from zk.create(f"/d{i}", b"")
            return True

        run_client(sim, ens, seed, name="seed")
        ens.crash("zk2")

        def more(zk):
            yield from zk.create("/while-down", b"")
            return True

        run_client(sim, ens, more, name="more")
        ens.restart("zk2")
        sim.run(until=sim.now + 3.0)
        assert ens.server("zk2").tree.exists("/while-down") is not None
