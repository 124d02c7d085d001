"""A client keeps nothing per operation.

After N and then 2N operations of a zero-hop client, the memory blocks
allocated in ``core/client.py`` that are still alive must not have
grown with N: a caller that wants an op's latency times the call
itself (``sim.now`` around it), and the observed latency histograms
have fixed buckets.
"""

import gc
import tracemalloc

from repro.core import client as client_module
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig

N = 150


def _held_blocks(cluster) -> int:
    cluster.settle(0.1)       # the replies a quorum did not wait for
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, client_module.__file__)])
    return sum(stat.count for stat in snapshot.statistics("filename"))


def test_blocks_held_by_the_client_do_not_grow_with_ops():
    cluster = SednaCluster(n_nodes=3, zk_size=3, seed=2,
                           config=SednaConfig(num_vnodes=16))
    cluster.start()
    client = cluster.smart_client("growth")
    cluster.run(client.connect())

    def ops(n):
        for i in range(n):
            key = f"g{i % 10}"
            yield from client.write_latest(key, f"v{i}")
            yield from client.read_latest(key)

    cluster.run(ops(10))                       # warm every path once
    tracemalloc.start()
    try:
        cluster.run(ops(N))
        after_n = _held_blocks(cluster)
        cluster.run(ops(N))
        after_2n = _held_blocks(cluster)
    finally:
        tracemalloc.stop()
    assert client.failures == 0
    assert after_2n <= after_n, (after_n, after_2n)
