"""When a node keeps the Dirty column (§IV.C).

A store keeps the Dirty column only on a node a trigger runtime scans:
an unscanned cluster keeps no dirty map however much it is written, a
scanned node keeps its column across a crash and restart (the rows it
recovers from disk are dirty again, as every merged row is), and a
write made before ``TriggerRuntime.start()`` is never scanned.  A
drained column gives its memory back.
"""

import sys

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.types import FullKey
from repro.storage.versioned import VersionedStore
from repro.triggers.api import Action, DataHooks, Job, TriggerOutput
from repro.triggers.runtime import TriggerRuntime


class Recorder(Action):
    def __init__(self):
        self.calls = []

    def action(self, key, values, result):
        self.calls.append((key.key, list(values)))


def build(persistence: str = "none") -> SednaCluster:
    cluster = SednaCluster(
        n_nodes=4, zk_size=3, seed=3,
        config=SednaConfig(num_vnodes=32, scan_interval=0.05,
                           trigger_interval=0.1, persistence=persistence))
    cluster.start()
    return cluster


def watch(runtime: TriggerRuntime) -> Recorder:
    recorder = Recorder()
    runtime.submit(Job("watch").with_action(recorder)
                   .monitor(DataHooks(dataset="d", table="t"))
                   .output_to(TriggerOutput("d", "out")))
    return recorder


def write(cluster, client, key, value):
    cluster.run(client.write_latest(key, value, table="t", dataset="d"))


def test_an_unscanned_cluster_keeps_no_dirty_map():
    cluster = build()
    client = cluster.client()

    def load():
        for i in range(1000):
            yield from client.write_latest(f"k{i}", "v")

    cluster.run(load())
    assert sum(len(node.store) for node in cluster.nodes.values()) == 3000
    for node in cluster.nodes.values():
        assert not node.scanned
        assert node.store._dirty_keys is None
        assert node.store.drain_dirty() == []


def test_a_write_before_start_is_not_scanned():
    cluster = build()
    client = cluster.client()
    write(cluster, client, "early", "e")
    runtime = TriggerRuntime(cluster)
    runtime.start()
    recorder = watch(runtime)
    write(cluster, client, "late", "l")
    cluster.settle(1.0)
    assert recorder.calls == [("late", ["l"])]


def test_a_restarted_node_scans_its_recovered_rows_and_new_writes():
    cluster = build(persistence="wal")
    runtime = TriggerRuntime(cluster)
    runtime.start()
    recorder = watch(runtime)
    client = cluster.client()
    write(cluster, client, "hot", "v1")
    cluster.settle(1.0)
    assert recorder.calls == [("hot", ["v1"])]

    encoded = FullKey(dataset="d", table="t", key="hot").encoded()
    ring = cluster.nodes["node0"].cache.ring
    primary = cluster.nodes[ring.replicas_for(ring.vnode_of(encoded), 1)[0]]
    cluster.crash_node(primary.name)
    cluster.restart_node(primary.name)
    assert primary.scanned and primary.store._dirty_keys is not None
    assert primary.store.read_latest(encoded).value == "v1"
    cluster.settle(1.0)
    # The recovered row was dirty again, so the primary's scanner fired
    # on it once more; then a new write fires too.
    assert recorder.calls == [("hot", ["v1"]), ("hot", ["v1"])]
    write(cluster, client, "hot", "v2")
    cluster.settle(1.0)
    assert recorder.calls[-1] == ("hot", ["v2"])
    assert len(recorder.calls) == 3


def test_a_drained_dirty_map_gives_its_memory_back():
    store = VersionedStore()
    store.keep_dirty()
    for i in range(10_000):
        store.write_latest(f"k{i}", b"v", float(i), "src")
    assert sys.getsizeof(store._dirty_keys) > 100_000
    drained = store.drain_dirty(limit=4_000) + store.drain_dirty()
    assert [key for key, _row in drained] == [f"k{i}" for i in range(10_000)]
    assert sys.getsizeof(store._dirty_keys) <= 1024
    store.write_latest("k0", b"w", 1e6, "src")
    assert [key for key, _row in store.drain_dirty()] == ["k0"]
