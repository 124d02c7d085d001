"""Read-repair under churn: the membership-churn wait path and
late-responder repair of the coordinator's ``sedna.read`` pipeline.

Covers the paths that only fire when replica responses straddle the
quorum decision:

* an apparent miss met by the first R (empty) replies waits out the
  remaining replicas before concluding — a recent write may live only
  on a replica whose reply is still in flight after the mapping moved;
* laggards answering *after* the quorum are checked and repaired
  fire-and-forget;
* a read whose first fan-out is cut off by a partition that heals
  mid-operation retries after invalidation and repairs the stale
  replica it finds.
"""

import pytest

from repro.core.cache import MappingCache
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.coordinator import QuorumCoordinator
from repro.core.hashring import Ring
from repro.core.types import FullKey
from repro.net.latency import NoLatency
from repro.net.rpc import RpcNode, RpcRejected
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.storage.versioned import ValueElement, WriteOutcome
from repro.zk.server import ZkConfig

from .test_coordinator_unit import FakeCache, Replica, drive


@pytest.fixture
def world():
    sim = Simulator()
    network = Network(sim, latency=NoLatency())
    config = SednaConfig(num_vnodes=4, request_timeout=0.5)
    replicas = {name: Replica(sim, network, name)
                for name in ("r0", "r1", "r2")}
    cache = FakeCache(config, ["r0", "r1", "r2"])
    coord_rpc = RpcNode(network, "coordinator")
    suspects = []
    coordinator = QuorumCoordinator(
        sim, coord_rpc, cache, config,
        on_suspect=lambda name, vnode: suspects.append(name))
    return sim, coordinator, replicas, cache, suspects


class TestChurnWaitPath:
    def test_late_responder_saves_an_apparent_miss(self, world):
        """Two fast empty replies meet R; the one replica that actually
        holds the fresh write answers late — the coordinator must wait
        it out instead of answering not-found."""
        sim, coordinator, replicas, _cache, _s = world
        replicas["r2"].elements = [ValueElement("w", 5.0, "survivor")]
        replicas["r2"].delay = 0.2  # inside the wait window

        result = drive(sim, coordinator.coordinate("sedna.read", {"key": "k"}))
        assert result["found"] is True
        assert result["value"] == "survivor"
        assert set(result["responders"]) == {"r0", "r1", "r2"}

    def test_wait_path_repairs_the_empty_repliers(self, world):
        sim, coordinator, replicas, _cache, _s = world
        replicas["r2"].elements = [ValueElement("w", 5.0, "survivor")]
        replicas["r2"].delay = 0.2

        drive(sim, coordinator.coordinate("sedna.read", {"key": "k"}))
        sim.run(until=sim.now + 1.0)
        repaired = {name for name, r in replicas.items() if r.repairs}
        assert {"r0", "r1"} <= repaired
        payloads = [tuple(e) for e in replicas["r0"].repairs[0]["elements"]]
        assert ("w", 5.0, "survivor") in payloads

    def test_wait_path_gives_up_at_the_deadline(self, world):
        """A silent third replica cannot stall the miss forever."""
        sim, coordinator, replicas, _cache, _s = world
        replicas["r2"].elements = [ValueElement("w", 5.0, "survivor")]
        replicas["r2"].behaviour = "silent"

        def go():
            result = yield from coordinator.coordinate(
                "sedna.read", {"key": "k"})
            return result, sim.now

        result, when = drive(sim, go())
        assert result["found"] is False
        assert when <= 1.5, "bounded by the request timeout"

    def test_late_stale_responder_repaired_fire_and_forget(self, world):
        """A laggard that answers after the quorum with a stale (empty)
        row gets the merged freshest elements pushed to it."""
        sim, coordinator, replicas, _cache, _s = world
        fresh = [ValueElement("w", 3.0, "new")]
        replicas["r0"].elements = fresh
        replicas["r1"].elements = fresh
        replicas["r2"].elements = []      # freshly recovered, empty row
        replicas["r2"].delay = 0.3        # answers after the quorum

        result = drive(sim, coordinator.coordinate("sedna.read", {"key": "k"}))
        assert result["value"] == "new"
        sim.run(until=sim.now + 1.0)
        assert len(replicas["r2"].repairs) == 1
        payloads = [tuple(e) for e in replicas["r2"].repairs[0]["elements"]]
        assert ("w", 3.0, "new") in payloads


class TestPartitionHealMidOperation:
    def build(self):
        cluster = SednaCluster(
            n_nodes=5, zk_size=3, seed=42,
            config=SednaConfig(num_vnodes=32),
            zk_config=ZkConfig(session_timeout=1.0))
        cluster.start()
        return cluster

    def test_read_retries_after_heal_and_repairs_stale_replica(self):
        """First fan-out is cut off by an active Partition; it heals
        mid-operation (inside the request-timeout window), the
        invalidate-and-retry pass succeeds and read repair converges
        the replica that missed the overwrite."""
        cluster = self.build()
        sim = cluster.sim
        client = cluster.client(pinned="node0")
        encoded = FullKey.of("healme").encoded()

        def seed():
            status = yield from client.write_latest("healme", "v1")
            return status

        assert cluster.run(seed()) == WriteOutcome.OK
        cluster.settle(1.0)

        ring = cluster.nodes["node0"].cache.ring
        vnode_id, replicas = ring.replicas_for_key(encoded, 3)
        assert len(replicas) == 3

        # Overwrite while one replica holder is partitioned away: it
        # stays stale on v1.
        stale = replicas[-1]
        island = [stale, f"{stale}-zk"]
        mainland = [n for n in cluster.network.endpoints if n not in island]
        part1 = cluster.failures.partition(island, mainland)

        def overwrite():
            return (yield from client.write_latest("healme", "v2"))

        assert cluster.run(overwrite()) == WriteOutcome.OK
        part1.heal()

        # Now cut the two *fresh* replicas away from a smart reader and
        # heal mid-operation: the first fan-out times out against the
        # majority, the retry (post-heal) must find v2 and repair the
        # stale replica.
        fresh = [r for r in replicas if r != stale]
        island2 = [n for r in fresh for n in (r, f"{r}-zk")]
        mainland2 = [n for n in cluster.network.endpoints
                     if n not in island2]

        reader = cluster.smart_client("healer")

        def connect():
            yield from reader.connect()
            return True

        cluster.run(connect())

        part2 = cluster.failures.partition(island2, mainland2)
        # Heal inside the first fan-out's request-timeout window.
        sim.schedule_callback(0.2, part2.heal)

        def read_during_heal():
            value = yield from reader.read_latest("healme")
            return value

        value = cluster.run(read_during_heal())
        assert value == "v2"
        assert reader.coordinator.read_repairs >= 1

        cluster.settle(2.0)
        stale_node = cluster.nodes[stale]
        latest = stale_node.store.read_latest(encoded)
        assert latest is not None and latest.value == "v2", (
            "read repair must converge the replica that missed v2")
