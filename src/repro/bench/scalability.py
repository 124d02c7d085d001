"""Scalability bench: aggregate throughput vs cluster size.

Not a paper figure — the paper *claims* incremental scalability
("designed especially for huge size data centers", §I; Table I row
"Partitioning → Incremental Scalability") but never plots it.  This
bench quantifies the claim on the reproduction: total write/read
throughput with one pinned client per node as the fleet grows.
Perfect scaling doubles throughput per doubling; we assert that bigger
fleets sustain more aggregate throughput and that the weak-scaling
efficiency T(12) / (4 * T(3)) stays at or above 0.5, so the
hierarchical ZooKeeper layer does not flatten the curve.
"""

from __future__ import annotations

from ..core.cluster import SednaCluster
from ..core.config import SednaConfig
from ..net.simulator import AllOf
from ..workloads.kv import paper_keys
from .harness import FigureResult, write_then_read

__all__ = ["throughput_at_size", "scalability"]


def throughput_at_size(n_nodes: int, ops_per_client: int = 400,
                       seed: int = 42) -> dict:
    """Aggregate ops/s with one smart client per node."""
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=64 * n_nodes))
    cluster.start()
    clients = [cluster.smart_client(f"scale{i}") for i in range(n_nodes)]
    keyspaces = [paper_keys(ops_per_client, seed=seed + i)
                 for i in range(n_nodes)]
    t0 = cluster.sim.now
    procs = [cluster.sim.process(write_then_read(client, keys, read=True))
             for client, keys in zip(clients, keyspaces)]
    cluster.sim.run(until=AllOf(cluster.sim, procs))
    duration = cluster.sim.now - t0
    total_ops = 2 * ops_per_client * n_nodes
    return {
        "nodes": n_nodes,
        "throughput": total_ops / duration,
        "duration_s": duration,
        "failures": sum(c.failures for c in clients),
    }


def scalability(ops_per_client: int = 400) -> FigureResult:
    """Aggregate throughput at 3, 6 and 12 Sedna nodes."""
    small = throughput_at_size(3, ops_per_client)
    medium = throughput_at_size(6, ops_per_client)
    large = throughput_at_size(12, ops_per_client)
    result = FigureResult("scalability",
                          "Aggregate throughput vs cluster size")
    result.totals = {
        "3 nodes (ops/s)": small["throughput"],
        "6 nodes (ops/s)": medium["throughput"],
        "12 nodes (ops/s)": large["throughput"],
    }
    result.expect(
        "throughput grows with cluster size",
        large["throughput"] > medium["throughput"] > small["throughput"],
        f"{small['throughput']:,.0f} -> {medium['throughput']:,.0f} -> "
        f"{large['throughput']:,.0f} ops/s")
    efficiency = large["throughput"] / (4 * small["throughput"])
    result.expect(
        "weak-scaling efficiency T(12) / (4 * T(3)) >= 0.5",
        efficiency >= 0.5,
        f"E = {efficiency:.2f}; per doubling "
        f"{medium['throughput'] / small['throughput']:.2f}x, "
        f"{large['throughput'] / medium['throughput']:.2f}x")
    result.expect(
        "no failures at any size",
        small["failures"] == medium["failures"] == large["failures"] == 0)
    result.notes.update(small=small, medium=medium, large=large)
    return result
