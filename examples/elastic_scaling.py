#!/usr/bin/env python
"""Incremental scalability (Table I) — grow the cluster at runtime.

The paper's headline for partitioning is *incremental scalability*:
"modern storage system needs the ability of managing more servers to
provide scalable storage and computing power" (§II.A.4).  This example
starts small, loads data, then adds servers one at a time while the
cluster keeps serving:

1. boot 3 nodes, load 300 keys;
2. join two more nodes live — each runs the §III.D protocol (ephemeral
   registration, concurrent vnode acquisition, data transfer from the
   previous owners);
3. run the data-balance manager until the vnode spread levels out;
4. run anti-entropy to certify replica convergence;
5. verify every key is still readable and balance improved.

Usage::

    python examples/elastic_scaling.py
"""

from repro import SednaCluster, SednaConfig
from repro.core.antientropy import AntiEntropyManager
from repro.core.gc import GarbageCollector
from repro.core.node import SednaNode
from repro.core.rebalance import Rebalancer
from repro.persistence.disk import SimDisk


def vnode_counts(cluster):
    ring = next(iter(cluster.nodes.values())).cache.ring
    return {name: len(ring.vnodes_of(name))
            for name in cluster.node_names}


def key_counts(cluster):
    return {name: len(node.store) for name, node in cluster.nodes.items()}


def main() -> None:
    print("Booting 3 nodes (60 virtual nodes)...")
    cluster = SednaCluster(
        n_nodes=3, zk_size=3,
        config=SednaConfig(num_vnodes=60, imbalance_push_interval=0.5,
                           lease_base=0.5))
    cluster.start()
    client = cluster.client("loader")

    def load():
        for i in range(300):
            yield from client.write_latest(f"key{i:04d}", f"value{i}")
        return True

    cluster.run(load())
    print(f"loaded 300 keys; stored rows per node: {key_counts(cluster)}")
    print(f"vnodes per node: {vnode_counts(cluster)}\n")

    # ------------------------------------------------------------------
    # Live joins: two new servers arrive.
    # ------------------------------------------------------------------
    for new_name in ("node3", "node4"):
        print(f"joining {new_name} (concurrent vnode acquisition + "
              f"data transfer)...")
        disk = SimDisk()
        newcomer = SednaNode(cluster.sim, cluster.network, new_name,
                             cluster.ensemble.names, cluster.config,
                             cluster.zk_config, disk=disk)
        cluster.nodes[new_name] = newcomer
        cluster.disks[new_name] = disk
        cluster.node_names.append(new_name)
        proc = cluster.sim.process(newcomer.join())
        cluster.sim.run(until=proc)
        cluster.settle(1.5)
        print(f"  vnodes now: {vnode_counts(cluster)}")

    # ------------------------------------------------------------------
    # Balance pass: even out whatever the join race left uneven.
    # ------------------------------------------------------------------
    print("\nrunning the data-balance manager...")
    rebalancer = Rebalancer(cluster.nodes["node0"], interval=0.5,
                            max_moves_per_pass=6)
    rebalancer.start()
    cluster.settle(20.0)
    rebalancer.stop()
    counts = vnode_counts(cluster)
    print(f"  after {rebalancer.moves} moves: {counts} "
          f"(spread {max(counts.values()) - min(counts.values())})")

    # ------------------------------------------------------------------
    # Anti-entropy certifies every replica converged after the churn.
    # ------------------------------------------------------------------
    print("\nrunning anti-entropy to converge replicas after the churn...")
    managers = [AntiEntropyManager(node, interval=0.5, vnodes_per_pass=60)
                for node in cluster.nodes.values()]
    for manager in managers:
        manager.start()
    cluster.settle(4.0)
    for manager in managers:
        manager.stop()
    pulled = sum(m.keys_pulled for m in managers)
    pushed = sum(m.keys_pushed for m in managers)
    print(f"  reconciled: {pulled} keys pulled, {pushed} pushed")

    # ------------------------------------------------------------------
    # Everything must still be there.
    # ------------------------------------------------------------------
    def verify():
        wrong = 0
        for i in range(300):
            value = yield from client.read_latest(f"key{i:04d}")
            if value != f"value{i}":
                wrong += 1
        return wrong

    wrong = cluster.run(verify())
    print(f"\nverification: {300 - wrong}/300 keys correct after scaling "
          f"from 3 to 5 nodes")
    print(f"rows per node before GC: {key_counts(cluster)}")

    # ------------------------------------------------------------------
    # Reclaim orphaned replicas left behind by the moves.
    # ------------------------------------------------------------------
    print("\nrunning the orphan-replica garbage collector...")
    gcs = [GarbageCollector(node, interval=0.5, vnodes_per_pass=60)
           for node in cluster.nodes.values()]
    for gc in gcs:
        gc.start()
    cluster.settle(5.0)
    for gc in gcs:
        gc.stop()
    print(f"  dropped {sum(gc.rows_dropped for gc in gcs)} orphaned rows "
          f"(pushed {sum(gc.rows_pushed for gc in gcs)} first)")
    print(f"rows per node after GC:  {key_counts(cluster)}")

    wrong = cluster.run(verify())
    print(f"post-GC verification: {300 - wrong}/300 keys correct")


if __name__ == "__main__":
    main()
