"""The node's bulk paths walk the same key lists as before the store
owned the vnode index.

A seeded cluster goes through every way a key enters or leaves a
vnode's list: LWW, value-list and causal writes, single and batched
deletes, monitor registrations on keys written and never written, a
crash and a WAL recovery, a join that pulls vnodes from their old
owners, and a GC pass.  Then, per node and vnode, the key lists of
``replica.transfer``, the anti-entropy digests and the migration
snapshot, the per-vnode key counts and the GC's orphan order are
fingerprinted.  ``PINNED`` is that fingerprint as the node computed it
while it kept its own set of keys per vnode beside the store.
"""

import hashlib
import json

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.gc import GarbageCollector
from repro.core.node import SednaNode
from repro.core.types import FullKey

PINNED = "b839d860ff08c7a3e3b457ab2be36fe75bdf0f10fb2bdcf958ed23aba7a63424"


def key_lists(node: SednaNode, num_vnodes: int) -> dict:
    """Everything a bulk path reads off the vnode index of ``node``."""
    out = {"orphans": GarbageCollector(node)._orphaned_vnodes(),
           "counts": {str(v): s.keys
                      for v, s in sorted(node.vnode_status.items())}}
    for v in range(num_vnodes):
        bundle = node._h_replica_transfer("probe", {"vnode": v})
        out[f"transfer/{v}"] = [list(bundle["rows"]),
                                list(bundle["dvv_rows"])]
        out[f"digest/{v}"] = [list(node.vnode_digest(v)),
                              list(node.vnode_dvv_digest(v))]
        begun = node._h_migrate_begin("probe", {"vnode": v, "to": "probe"})
        out[f"snapshot/{v}"] = [begun["keys"], node._migration_snaps[v]]
        node._h_migrate_end("probe", {"vnode": v, "committed": False})
    return out


def fingerprint() -> tuple[str, dict]:
    config = SednaConfig(num_vnodes=16, persistence="wal")
    cluster = SednaCluster(n_nodes=3, zk_size=3, seed=7, config=config)
    cluster.start()
    client = cluster.client("index", pinned="node0")
    for node in cluster.nodes.values():
        for i in range(4):
            node.store.register_monitor(FullKey.of(f"w{i}").encoded(), "job")

    def load():
        for i in range(40):
            yield from client.write_latest(f"l{i}", f"value-{i}")
        for i in range(12):
            yield from client.write_all(f"a{i}", f"list-{i}")
        for i in range(12):
            yield from client.write_causal(f"c{i}", f"causal-{i}")
        for i in range(2):
            yield from client.write_latest(f"w{i}", "watched")
        yield from client.multi_delete([f"l{i}" for i in range(0, 40, 3)])
        for i in range(3):
            yield from client.delete(f"a{i}")
        yield from client.delete("c5")

    cluster.run(load())
    cluster.settle(0.5)
    cluster.crash_node("node1")
    cluster.settle(1.0)
    cluster.restart_node("node1")
    newcomer = cluster.nodes["node3"] = SednaNode(
        cluster.sim, cluster.network, "node3", cluster.ensemble.names,
        cluster.config, cluster.zk_config)
    cluster.node_names.append("node3")
    cluster.run(newcomer.join())
    cluster.settle(3.0)

    def more():
        for i in range(40, 50):
            yield from client.write_latest(f"l{i}", f"value-{i}")
        yield from client.multi_delete([f"l{i}" for i in range(41, 50, 2)])

    cluster.run(more())
    cluster.settle(0.5)
    lists = {name: key_lists(node, config.num_vnodes)
             for name, node in sorted(cluster.nodes.items())}
    before_gc = {name: lists[name]["orphans"] for name in lists}
    collector = GarbageCollector(cluster.nodes["node1"], vnodes_per_pass=16)
    dropped = cluster.run(collector.run_pass())
    lists["node1/after-gc"] = key_lists(cluster.nodes["node1"],
                                        config.num_vnodes)
    lists["gc"] = [dropped, before_gc]
    blob = json.dumps(lists, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest(), lists


def test_the_bulk_paths_walk_the_same_key_lists():
    digest, lists = fingerprint()
    # The scenario exercises what it claims to.
    assert lists["gc"][0] > 0, "the GC pass dropped orphaned rows"
    assert any(lists["gc"][1].values()), "some node held orphans"
    assert any(keys[0] or keys[1] for name, node_lists in lists.items()
               if name != "gc"
               for label, keys in node_lists.items()
               if label.startswith("transfer/"))
    assert digest == PINNED, digest


if __name__ == "__main__":
    print(fingerprint()[0])
