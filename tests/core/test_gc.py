"""Tests for the orphan-replica garbage collector."""

import pytest

from repro.core.cache import ZkLayout
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.gc import GarbageCollector
from repro.core.node import SednaNode
from repro.core.types import FullKey
from repro.persistence.disk import SimDisk


def cluster_with_newcomer(n_keys=40):
    """2-node cluster + data, then a third node joins and steals vnodes,
    leaving orphaned rows on the original owners."""
    cluster = SednaCluster(n_nodes=2, zk_size=3,
                           config=SednaConfig(num_vnodes=18, lease_base=0.5))
    cluster.start()
    client = cluster.client()

    def seed():
        for i in range(n_keys):
            yield from client.write_latest(f"g{i}", f"v{i}")
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
    cluster.settle(3.0)  # leases pick up the new mapping
    return cluster, client, n_keys


class TestGarbageCollector:
    def test_drops_orphans_only(self):
        cluster, client, n_keys = cluster_with_newcomer()
        node0 = cluster.nodes["node0"]
        orphans_before = GarbageCollector(node0)._orphaned_vnodes()
        # With only 2 original nodes and N=3, every vnode replicates on
        # both of them; after node2 takes over some vnodes, original
        # nodes may STILL be in those replica sets (3 nodes = N), so
        # orphans exist only if replicas < cluster size.  Force some:
        # shrink the replica factor view by checking the invariant
        # instead — GC must never drop a row its node still replicates.
        gc = GarbageCollector(node0, interval=0.5, vnodes_per_pass=18)
        gc.start()
        cluster.settle(3.0)
        gc.stop()
        ring = node0.cache.ring
        for vnode_id in node0.store.indexed_vnodes():
            assert node0.name in ring.replicas_for(vnode_id, 3), \
                "live replica data must remain"

        def verify():
            wrong = 0
            for i in range(n_keys):
                value = yield from client.read_latest(f"g{i}")
                if value != f"v{i}":
                    wrong += 1
            return wrong

        assert cluster.run(verify()) == 0

    def test_collects_after_ownership_moves_away(self):
        """5-node cluster: move a vnode's whole neighbourhood away from
        one holder and watch GC reclaim its rows."""
        cluster = SednaCluster(n_nodes=5, zk_size=3,
                               config=SednaConfig(num_vnodes=20,
                                                  lease_base=0.3))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(50):
                yield from client.write_latest(f"m{i}", f"v{i}")
            return True

        cluster.run(seed())
        node0 = cluster.nodes["node0"]
        rows_before = len(node0.store)
        assert rows_before > 0

        # Admin: take every vnode away from node0.
        def strip():
            zk = cluster.ensemble.client("admin")
            yield from zk.connect()
            for v in range(20):
                data, stat = yield from zk.get(ZkLayout.vnode(v))
                if data.decode() == "node0":
                    new_owner = f"node{1 + v % 4}"
                    yield from zk.set(ZkLayout.vnode(v), new_owner.encode(),
                                      version=stat["version"])
                    yield from zk.create(f"{ZkLayout.CHANGELOG}/e-",
                                         str(v).encode(), sequential=True)
            return True

        cluster.run(strip())
        cluster.settle(3.0)  # caches resync

        gc = GarbageCollector(node0, interval=0.5, vnodes_per_pass=20)
        gc.start()
        cluster.settle(5.0)
        gc.stop()
        assert len(node0.store) < rows_before
        assert gc.rows_dropped > 0

        def verify():
            wrong = 0
            for i in range(50):
                value = yield from client.read_latest(f"m{i}")
                if value != f"v{i}":
                    wrong += 1
            return wrong

        assert cluster.run(verify()) == 0, \
            "GC must push before dropping: no data loss"

    def test_gc_pushes_unique_versions_before_dropping(self):
        """If the orphaned holder has the ONLY up-to-date copy, GC must
        hand it to the new replica set, not destroy it."""
        cluster = SednaCluster(n_nodes=4, zk_size=3,
                               config=SednaConfig(num_vnodes=16,
                                                  lease_base=0.3))
        cluster.start()
        client = cluster.client()

        def seed():
            yield from client.write_latest("precious", "unique")
            return True

        cluster.run(seed())
        node_map = cluster.nodes
        encoded = FullKey.of("precious").encoded()
        holder = next(n for n in node_map.values() if encoded in n.store)
        others = [n for n in node_map.values()
                  if n is not holder and encoded in n.store]
        # Delete the copies everywhere else (silent divergence).
        for other in others:
            other.store.delete(encoded)

        # Move the key's vnode ownership away from the holder.
        vnode = holder.cache.ring.vnode_of(encoded)

        def strip():
            zk = cluster.ensemble.client("admin")
            yield from zk.connect()
            for v, owner in holder.cache.ring.walk_positions(vnode, 3):
                if owner == holder.name:
                    new_owner = next(n.name for n in node_map.values()
                                     if n.name != holder.name)
                    data, stat = yield from zk.get(ZkLayout.vnode(v))
                    yield from zk.set(ZkLayout.vnode(v), new_owner.encode(),
                                      version=stat["version"])
                    yield from zk.create(f"{ZkLayout.CHANGELOG}/e-",
                                         str(v).encode(), sequential=True)
            return True

        cluster.run(strip())
        cluster.settle(3.0)

        gc = GarbageCollector(holder, interval=0.5, vnodes_per_pass=16)
        gc.start()
        cluster.settle(5.0)
        gc.stop()

        def read():
            return (yield from client.read_latest("precious"))

        assert cluster.run(read()) == "unique"

    def test_quiet_on_stable_cluster(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(num_vnodes=16))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(20):
                yield from client.write_latest(f"q{i}", i)
            return True

        cluster.run(seed())
        gcs = [GarbageCollector(node, interval=0.5, vnodes_per_pass=16)
               for node in cluster.nodes.values()]
        for gc in gcs:
            gc.start()
        cluster.settle(3.0)
        for gc in gcs:
            gc.stop()
        assert all(gc.rows_dropped == 0 for gc in gcs)
