"""Integration tests for the §III.D join protocol and mapping cache."""

from unittest import mock

import pytest

from repro.core.cache import ZkLayout
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.node import SednaNode
from repro.persistence.disk import SimDisk
from repro.storage.versioned import WriteOutcome
from repro.zk.znode import ZnodeTree


class TestJoinBootstrap:
    def test_join_mode_assigns_every_vnode(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=24))
        cluster.start(bootstrap="join")
        ring = cluster.nodes["node0"].cache.ring
        cluster.settle(2.0)
        # Read authoritative assignment from ZooKeeper.
        leader = cluster.ensemble.leader()
        owners = []
        for v in range(24):
            data, _ = leader.tree.get(ZkLayout.vnode(v))
            owners.append(data.decode())
        assert all(o != "" for o in owners), "every vnode must find an owner"
        assert set(owners) <= set(cluster.node_names)

    @pytest.mark.parametrize("vnodes", [128, SednaConfig().num_vnodes])
    def test_nine_node_join_boot_rolls_back_without_snapshots(self, vnodes):
        """Most claim multis lose their version race; undoing one must not
        cost a whole-tree snapshot (it did: 2 516 dumps + 1 748 loads at 128
        vnodes, ~30 s of wall at the default 512)."""
        cluster = SednaCluster(n_nodes=9, zk_size=3,
                               config=SednaConfig(num_vnodes=vnodes))
        with mock.patch.object(ZnodeTree, "dump", autospec=True,
                               side_effect=ZnodeTree.dump) as dump, \
                mock.patch.object(ZnodeTree, "load",
                                  side_effect=ZnodeTree.load) as load:
            cluster.start(bootstrap="join")
        # The two followers' snapshot sync on adopting the leader at
        # ensemble start, and nothing else.
        assert (dump.call_count, load.call_count) == (2, 2)
        cluster.settle(2.0)
        servers = cluster.ensemble.servers
        owners = {servers[0].tree.get(ZkLayout.vnode(v))[0].decode()
                  for v in range(vnodes)}
        assert owners <= {n for n, node in cluster.nodes.items()
                          if node.running}
        dumps = [s.tree.dump() for s in servers]
        assert dumps[0] == dumps[1] == dumps[2]

    def test_join_mode_roughly_balanced(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=24))
        cluster.start(bootstrap="join")
        cluster.settle(2.0)
        leader = cluster.ensemble.leader()
        counts = {name: 0 for name in cluster.node_names}
        for v in range(24):
            data, _ = leader.tree.get(ZkLayout.vnode(v))
            if data.decode() in counts:
                counts[data.decode()] += 1
        # Concurrent claiming cannot be perfect, but nobody should hold
        # everything and nobody should starve badly.
        assert max(counts.values()) <= 24
        assert sum(counts.values()) == 24

    def test_join_mode_serves_requests(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=24))
        cluster.start(bootstrap="join")
        client = cluster.client()

        def script():
            status = yield from client.write_latest("jk", "jv")
            value = yield from client.read_latest("jk")
            return status, value

        assert cluster.run(script()) == (WriteOutcome.OK, "jv")


class TestLateJoiner:
    def test_new_node_steals_from_overloaded(self):
        cluster = SednaCluster(n_nodes=2, zk_size=3,
                               config=SednaConfig(num_vnodes=30))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(20):
                yield from client.write_latest(f"k{i}", i)
            return True

        cluster.run(seed())

        # A third node arrives after the fact.
        disk = SimDisk()
        newcomer = SednaNode(cluster.sim, cluster.network, "node2",
                             cluster.ensemble.names, cluster.config,
                             cluster.zk_config, disk=disk)
        cluster.nodes["node2"] = newcomer
        cluster.node_names.append("node2")
        cluster.disks["node2"] = disk
        proc = cluster.sim.process(newcomer.join())
        cluster.sim.run(until=proc)
        cluster.settle(2.0)

        taken = len(newcomer.cache.ring.vnodes_of("node2"))
        assert taken >= 30 // 3 - 2, f"newcomer only acquired {taken} vnodes"

    def test_stolen_vnode_data_transferred(self):
        cluster = SednaCluster(n_nodes=2, zk_size=3,
                               config=SednaConfig(num_vnodes=16))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(30):
                yield from client.write_latest(f"k{i}", i)
            return True

        cluster.run(seed())

        disk = SimDisk()
        newcomer = SednaNode(cluster.sim, cluster.network, "node2",
                             cluster.ensemble.names, cluster.config,
                             cluster.zk_config, disk=disk)
        cluster.nodes["node2"] = newcomer
        cluster.node_names.append("node2")
        proc = cluster.sim.process(newcomer.join())
        cluster.sim.run(until=proc)
        cluster.settle(2.0)

        stolen = newcomer.cache.ring.vnodes_of("node2")
        with_data = [v for v in stolen if newcomer.vnode_keys.get(v)]
        keys_seeded = any(newcomer.vnode_keys.get(v) for v in stolen)
        # Some stolen vnodes may legitimately hold no keys; but if any
        # stolen vnode had data at the old owner it must have moved.
        assert newcomer.running
        if stolen and keys_seeded:
            for v in with_data:
                for key in newcomer.vnode_keys[v]:
                    assert key in newcomer.store


class TestMappingCacheSync:
    def test_lease_doubles_when_quiet(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=16,
                                                  lease_base=0.5,
                                                  lease_max=4.0))
        cluster.start()
        node = cluster.nodes["node0"]
        start_lease = node.cache.lease
        cluster.settle(10.0)  # nothing changes in ZK
        assert node.cache.lease > start_lease
        assert node.cache.lease <= 4.0

    def test_lease_halves_on_churn(self):
        cluster = SednaCluster(n_nodes=4, zk_size=3,
                               config=SednaConfig(num_vnodes=16,
                                                  lease_base=2.0,
                                                  lease_min=0.25))
        cluster.start()
        node = cluster.nodes["node0"]
        cluster.settle(0.1)

        # Churn the mapping from outside (as a rebalance would).
        def churn():
            zk = cluster.ensemble.client("churner")
            yield from zk.connect()
            for round_ in range(6):
                for v in range(0, 16, 2):
                    data, stat = yield from zk.get(ZkLayout.vnode(v))
                    owner = data.decode()
                    flipped = ("node1" if owner != "node1" else "node2")
                    yield from zk.set(ZkLayout.vnode(v), flipped.encode(),
                                      version=stat["version"])
                    yield from zk.create(f"{ZkLayout.CHANGELOG}/e-",
                                         str(v).encode(), sequential=True)
                yield cluster.sim.timeout(1.0)
            return True

        cluster.run(churn())
        assert node.cache.lease < 2.0

    def test_changelog_refresh_updates_ring(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=16,
                                                  lease_base=0.5))
        cluster.start()
        node = cluster.nodes["node0"]

        def reassign():
            zk = cluster.ensemble.client("admin")
            yield from zk.connect()
            data, stat = yield from zk.get(ZkLayout.vnode(5))
            yield from zk.set(ZkLayout.vnode(5), b"node1",
                              version=stat["version"])
            yield from zk.create(f"{ZkLayout.CHANGELOG}/e-", b"5",
                                 sequential=True)
            return data.decode()

        cluster.run(reassign())
        cluster.settle(3.0)  # a couple of lease periods
        assert node.cache.ring.owner(5) == "node1"

    def test_refresh_reads_only_changed_vnodes(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=16,
                                                  lease_base=0.5))
        cluster.start()
        node = cluster.nodes["node0"]
        reads_after_boot = node.cache.vnode_reads
        cluster.settle(5.0)  # quiet: refreshes should read ~no vnodes
        assert node.cache.vnode_reads - reads_after_boot <= 2
