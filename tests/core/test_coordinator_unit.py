"""Unit tests of QuorumCoordinator against scripted mock replicas.

The cluster integration tests exercise the coordinator end to end;
these tests pin down its *decision logic* in isolation: quorum
accounting, retry-on-stale-mapping, R-equality checking, read repair
targeting, and suspect notification — with replicas whose behaviour
(delay, refuse, silence, payload) is scripted per test.
"""

import pytest

from repro.core.cache import MappingCache
from repro.core.config import SednaConfig
from repro.core.coordinator import QuorumCoordinator, wire_elements
from repro.core.hashring import Ring
from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode, RpcRejected
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.storage.versioned import ValueElement, WriteOutcome


class FakeCache:
    """A MappingCache stand-in with a fixed ring and countable
    invalidations."""

    def __init__(self, config, owners):
        self.config = config
        self.ring = Ring(4)
        for v in range(4):
            self.ring.assign(v, owners[v % len(owners)])
        self.loaded = True
        self.invalidated = []

    def replicas_for_key(self, key):
        return self.ring.replicas_for_key(key, self.config.replicas)

    def invalidate(self, vnode_id):
        self.invalidated.append(vnode_id)
        return
        yield  # pragma: no cover - makes this a generator


class Replica:
    """A scripted replica server."""

    def __init__(self, sim, network, name):
        self.sim = sim
        self.name = name
        self.rpc = RpcNode(network, name)
        self.behaviour = "ok"           # ok | refuse | silent
        self.delay = 0.0
        self.elements: list[ValueElement] = []
        self.writes = []
        self.repairs = []
        self.deletes = []
        self.rpc.register("replica.write", self._write)
        self.rpc.register("replica.read", self._read)
        self.rpc.register("replica.repair", self._repair)
        self.rpc.register("replica.delete", self._delete)

    def _respond(self, value):
        if self.behaviour == "refuse":
            raise RpcRejected("not-owner")
        if self.behaviour == "silent":
            return self.sim.event()  # never triggers
        if self.delay > 0.0:
            ev = self.sim.event()
            self.sim.schedule_callback(self.delay,
                                       lambda: ev.succeed(value))
            return ev
        return value

    def _write(self, src, args):
        self.writes.append(args)
        return self._respond({"status": WriteOutcome.OK})

    def _read(self, src, args):
        return self._respond({"elements": wire_elements(self.elements)})

    def _repair(self, src, args):
        self.repairs.append(args)
        return {"status": "ok"}

    def _delete(self, src, args):
        self.deletes.append(args)
        return self._respond({"status": "ok"})


@pytest.fixture
def world():
    sim = Simulator()
    network = Network(sim, latency=NoLatency())
    config = SednaConfig(num_vnodes=4)
    replicas = {name: Replica(sim, network, name)
                for name in ("r0", "r1", "r2")}
    cache = FakeCache(config, ["r0", "r1", "r2"])
    coord_rpc = RpcNode(network, "coordinator")
    suspects = []
    coordinator = QuorumCoordinator(
        sim, coord_rpc, cache, config,
        on_suspect=lambda name, vnode: suspects.append(name))
    return sim, coordinator, replicas, cache, suspects


def drive(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


WRITE_ARGS = {"key": "k", "value": "v", "ts": 1.0, "source": "cli",
              "mode": "latest"}


class TestWriteLogic:
    def test_happy_path_hits_all_three(self, world):
        sim, coordinator, replicas, _cache, suspects = world
        result = drive(sim, coordinator.coordinate(
            "sedna.write", dict(WRITE_ARGS)))
        assert result["status"] == WriteOutcome.OK
        assert all(len(r.writes) == 1 for r in replicas.values())
        assert suspects == []

    def test_returns_at_w_without_waiting_for_slowest(self, world):
        sim, coordinator, replicas, _cache, _s = world
        replicas["r2"].delay = 10.0

        def go():
            result = yield from coordinator.coordinate(
                "sedna.write", dict(WRITE_ARGS))
            return result, sim.now

        result, when = drive(sim, go())
        assert result["status"] == WriteOutcome.OK
        assert when < 1.0, "W=2 met by the two fast replicas"

    def test_silent_replica_flagged_suspect(self, world):
        sim, coordinator, replicas, _cache, suspects = world
        replicas["r1"].behaviour = "silent"
        result = drive(sim, coordinator.coordinate(
            "sedna.write", dict(WRITE_ARGS)))
        assert result["status"] == WriteOutcome.OK
        sim.run(until=sim.now + 1.0)  # the silence deadline passes
        assert "r1" in suspects

    def test_refusal_flagged_suspect(self, world):
        sim, coordinator, replicas, _cache, suspects = world
        replicas["r0"].behaviour = "refuse"
        result = drive(sim, coordinator.coordinate(
            "sedna.write", dict(WRITE_ARGS)))
        assert result["status"] == WriteOutcome.OK
        assert "r0" in suspects

    def test_quorum_failure_invalidates_and_retries_once(self, world):
        sim, coordinator, replicas, cache, _s = world
        for r in replicas.values():
            r.behaviour = "refuse"

        def go():
            with pytest.raises(RpcRejected):
                yield from coordinator.coordinate(
                    "sedna.write", dict(WRITE_ARGS))
            return True

        drive(sim, go())
        assert len(cache.invalidated) >= 1, "stale-mapping retry path"
        # Two attempts -> each replica refused twice.
        assert coordinator.coordinated_writes == 2

    def test_two_silent_replicas_fail_the_write(self, world):
        sim, coordinator, replicas, _cache, _s = world
        replicas["r0"].behaviour = "silent"
        replicas["r1"].behaviour = "silent"

        def go():
            with pytest.raises(RpcRejected, match="write-quorum-failed"):
                yield from coordinator.coordinate(
                    "sedna.write", dict(WRITE_ARGS))
            return sim.now

        when = drive(sim, go())
        assert when >= 2 * 0.5, "both attempts wait out the timeout"


class TestReadLogic:
    def _load(self, replicas, versions):
        for name, elements in versions.items():
            replicas[name].elements = elements

    def test_agreeing_replicas_no_repair(self, world):
        sim, coordinator, replicas, _cache, _s = world
        fresh = [ValueElement("w", 2.0, "new")]
        self._load(replicas, {"r0": fresh, "r1": fresh, "r2": fresh})
        result = drive(sim, coordinator.coordinate("sedna.read", {"key": "k"}))
        assert result["found"] is True
        assert (result["value"], result["ts"], result["source"]) == (
            "new", 2.0, "w")
        sim.run(until=sim.now + 1.0)
        assert all(r.repairs == [] for r in replicas.values())
        assert coordinator.read_repairs == 0

    def test_stale_minority_repaired(self, world):
        sim, coordinator, replicas, _cache, _s = world
        fresh = [ValueElement("w", 2.0, "new")]
        stale = [ValueElement("w", 1.0, "old")]
        self._load(replicas, {"r0": fresh, "r1": fresh, "r2": stale})
        result = drive(sim, coordinator.coordinate("sedna.read", {"key": "k"}))
        assert result["value"] == "new"
        sim.run(until=sim.now + 1.0)
        assert len(replicas["r2"].repairs) == 1
        repaired = replicas["r2"].repairs[0]["elements"]
        assert ("w", 2.0, "new") in repaired

    def test_fresh_minority_wins_and_spreads(self, world):
        """One replica holds the newest version: the merged read must
        return it and push it to the two stale replicas."""
        sim, coordinator, replicas, _cache, _s = world
        fresh = [ValueElement("w", 3.0, "newest")]
        stale = [ValueElement("w", 1.0, "old")]
        self._load(replicas, {"r0": stale, "r1": stale, "r2": fresh})
        result = drive(sim, coordinator.coordinate("sedna.read", {"key": "k"}))
        # The coordinator may answer before r2's response arrives only
        # if R stale copies agree; the merged answer must still win
        # after repair.  Re-read to observe the converged value.
        sim.run(until=sim.now + 1.0)
        result2 = drive(sim, coordinator.coordinate(
            "sedna.read", {"key": "k"}))
        assert result2["value"] == "newest"

    def test_read_all_merges_value_lists(self, world):
        sim, coordinator, replicas, _cache, _s = world
        self._load(replicas, {
            "r0": [ValueElement("a", 1.0, "va")],
            "r1": [ValueElement("b", 2.0, "vb")],
            "r2": [],
        })
        result = drive(sim, coordinator.coordinate("sedna.read",
            {"key": "k", "mode": "all"}))
        sources = {source for source, _ts, _v in result["elements"]}
        assert sources == {"a", "b"}

    def test_missing_key_not_found(self, world):
        sim, coordinator, replicas, _cache, _s = world
        result = drive(sim, coordinator.coordinate(
            "sedna.read", {"key": "nope"}))
        assert result["found"] is False

    def test_read_quorum_failure(self, world):
        sim, coordinator, replicas, _cache, _s = world
        replicas["r0"].behaviour = "silent"
        replicas["r1"].behaviour = "silent"

        def go():
            with pytest.raises(RpcRejected, match="read-quorum-failed"):
                yield from coordinator.coordinate("sedna.read", {"key": "k"})
            return True

        assert drive(sim, go()) is True


class TestDeleteLogic:
    def test_delete_quorum(self, world):
        sim, coordinator, _replicas, _cache, _s = world
        result = drive(sim, coordinator.coordinate(
            "sedna.delete", {"key": "k"}))
        assert result["status"] == "ok"
        assert len(result["acks"]) >= 2
        assert coordinator.coordinated_deletes == 1

    def test_not_enough_replicas_rejected_upfront(self, world):
        """Parity with the write path: a shrunken replica set must be
        rejected before any fan-out."""
        sim, coordinator, replicas, cache, _s = world
        for v in range(4):
            cache.ring.assign(v, "r0")

        def go():
            with pytest.raises(RpcRejected, match="not-enough-replicas"):
                yield from coordinator.coordinate("sedna.delete", {"key": "k"})
            return True

        assert drive(sim, go()) is True
        assert all(r.deletes == [] for r in replicas.values()), (
            "rejected before any fan-out")

    def test_quorum_failure_invalidates_and_retries_once(self, world):
        """Parity with the write path: a refused quorum may mean a
        stale mapping — invalidate and retry once before failing."""
        sim, coordinator, replicas, cache, suspects = world
        for r in replicas.values():
            r.behaviour = "refuse"

        def go():
            with pytest.raises(RpcRejected, match="delete-quorum-failed"):
                yield from coordinator.coordinate("sedna.delete", {"key": "k"})
            return True

        drive(sim, go())
        assert len(cache.invalidated) >= 1, "stale-mapping retry path"
        assert coordinator.coordinated_deletes == 2, "one retry"
        assert set(suspects) == {"r0", "r1", "r2"}

    def test_silent_laggard_suspected_after_delete(self, world):
        sim, coordinator, replicas, _cache, suspects = world
        replicas["r2"].behaviour = "silent"
        result = drive(sim, coordinator.coordinate(
            "sedna.delete", {"key": "k"}))
        assert result["status"] == "ok"
        sim.run(until=sim.now + 1.0)  # the silence deadline passes
        assert "r2" in suspects


class TestReplicaDeleteOwnership:
    """Recorded, not fixed (ROADMAP aim 3): the fix moves digests."""

    @pytest.mark.xfail(strict=True, reason=(
        "replica.delete / replica.mdelete skip the not-owner guard every "
        "other replica write path has, so a non-owner acks deletes and "
        "the delete pipeline's invalidate-and-retry on a stale mapping "
        "can never fire"))
    def test_non_owner_refuses_replica_delete(self):
        from repro.core.cluster import SednaCluster

        cluster = SednaCluster(n_nodes=4, zk_size=1,
                               config=SednaConfig(num_vnodes=8))
        cluster.start()
        vnode_id, replicas = cluster.nodes["node0"].cache.replicas_for_key(
            "k")
        outsider = next(n for n in cluster.node_names if n not in replicas)
        probe = RpcNode(cluster.network, "probe")

        def refused(method, args):
            try:
                yield from probe.call(outsider, method, args, timeout=1.0)
            except RpcRejected as rej:
                return rej.reason
            return None

        # The contrast: the same outsider refuses a write.
        assert cluster.run(refused("replica.write", {
            "vnode": vnode_id, **WRITE_ARGS})) == "not-owner"
        assert cluster.run(refused("replica.delete", {
            "vnode": vnode_id, "key": "k"})) == "not-owner"
        assert cluster.run(refused("replica.mdelete", {
            "vnode": vnode_id, "keys": ["k"]})) == "not-owner"

