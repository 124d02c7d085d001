"""Operator-facing cluster inspection reports.

``describe_cluster`` renders the kind of status page an operator of a
Sedna deployment would want: ZooKeeper ensemble health, per-node
ownership and traffic, ring balance, replication health of sampled
keys, and trigger activity.  The report is plain text (the deployment
is simulated; there is no HTTP to serve it over) and every section is
also available as structured data for tests and tooling.
"""

from __future__ import annotations

from typing import Optional

from ..bench.harness import format_table
from ..core.cluster import SednaCluster
from ..core.types import FullKey
from ..obs import OFF

__all__ = ["ring_summary", "zk_summary", "node_summary",
           "replication_health", "obs_summary", "describe_cluster"]


def ring_summary(cluster: SednaCluster) -> dict:
    """Vnode-ownership balance as seen by node0's cache.

    Every cluster node is counted, a node that owns no vnode as 0, so a
    node left with nothing shows in ``owners`` and widens ``spread``.
    """
    any_node = next(iter(cluster.nodes.values()))
    ring = any_node.cache.ring
    counts = dict.fromkeys(cluster.nodes, 0)
    counts.update(ring.load_counts())
    unassigned = len(ring.unassigned())
    values = list(counts.values()) or [0]
    return {
        "num_vnodes": ring.num_vnodes,
        "owners": counts,
        "unassigned": unassigned,
        "spread": max(values) - min(values),
    }


def zk_summary(cluster: SednaCluster) -> dict:
    """Ensemble roles, zxids and session counts."""
    members = []
    for server in cluster.ensemble.servers:
        members.append({
            "name": server.name,
            "running": server.running,
            "role": server.role if server.running else "down",
            "epoch": server.epoch,
            "zxid": server.applied_zxid,
            "sessions": len(server.sessions),
            "reads_served": server.reads_served,
        })
    leader = cluster.ensemble.leader()
    return {"members": members,
            "leader": leader.name if leader else None}


def node_summary(cluster: SednaCluster) -> list[dict]:
    """One row per Sedna real node."""
    return [node.stats() for node in cluster.nodes.values()]


def replication_health(cluster: SednaCluster, keys: list[str],
                       table: str = "default",
                       dataset: str = "default") -> dict:
    """Live-copy histogram for the given keys."""
    histogram: dict[int, int] = {}
    under: list[str] = []
    n = cluster.config.replicas
    for key in keys:
        encoded = FullKey(dataset=dataset, table=table, key=key).encoded()
        copies = cluster.total_replicas_of(encoded)
        histogram[copies] = histogram.get(copies, 0) + 1
        if copies < n:
            under.append(key)
    return {"histogram": dict(sorted(histogram.items())),
            "under_replicated": under,
            "target": n}


def obs_summary(cluster: SednaCluster, top: int = 10) -> dict:
    """Metrics-registry digest: biggest counter series plus span totals.

    Empty dict when the cluster is unobserved (``OFF``)."""
    obs = cluster.obs
    if obs is OFF:
        return {}
    snap = obs.snapshot()
    counters = [(label, data["value"])
                for label, data in snap["series"].items()
                if data["type"] == "counter"]
    counters.sort(key=lambda item: (-item[1], item[0]))
    return {
        "series": len(snap["series"]),
        "dropped_series": snap["dropped_series"],
        "top_counters": counters[:top],
        "tracing": snap["tracing"],
    }


def describe_cluster(cluster: SednaCluster,
                     sample_keys: Optional[list[str]] = None) -> str:
    """Render the full status report."""
    lines = [f"=== Sedna cluster status @ t={cluster.sim.now:.2f}s ==="]

    zk = zk_summary(cluster)
    lines.append(f"\n-- ZooKeeper sub-cluster (leader: {zk['leader']}) --")
    lines.append(format_table(
        [(m["name"], m["role"], m["epoch"], m["zxid"], m["sessions"],
          m["reads_served"]) for m in zk["members"]],
        headers=("member", "role", "epoch", "zxid", "sessions", "reads")))

    ring = ring_summary(cluster)
    lines.append(f"\n-- Ring: {ring['num_vnodes']} vnodes, "
                 f"spread {ring['spread']}, "
                 f"unassigned {ring['unassigned']} --")
    lines.append(format_table(sorted(ring["owners"].items()),
                              headers=("owner", "vnodes")))

    lines.append("\n-- Real nodes --")
    lines.append(format_table(
        [(s["name"], "up" if s["running"] else "DOWN", s["keys"],
          s["coordinated_writes"], s["coordinated_reads"],
          s["replica_writes"], s["replica_reads"], s["recoveries"])
         for s in node_summary(cluster)],
        headers=("node", "state", "rows", "c.writes", "c.reads",
                 "r.writes", "r.reads", "recoveries")))

    if sample_keys:
        health = replication_health(cluster, sample_keys)
        lines.append(f"\n-- Replication health over {len(sample_keys)} "
                     f"sampled keys (target {health['target']}) --")
        lines.append(format_table(
            sorted(health["histogram"].items()),
            headers=("live copies", "keys")))
        if health["under_replicated"]:
            lines.append("under-replicated: "
                         + ", ".join(health["under_replicated"][:10]))

    net = cluster.network
    lines.append(f"\n-- Network: {net.delivered:,} delivered, "
                 f"{net.dropped:,} dropped --")

    obs = obs_summary(cluster)
    if obs:
        tracing = obs["tracing"]
        lines.append(f"\n-- Observability: {obs['series']} series "
                     f"({obs['dropped_series']} dropped), "
                     f"{tracing['traces']} traces / "
                     f"{tracing['spans']} spans --")
        lines.append(format_table(obs["top_counters"],
                                  headers=("series", "count")))
    return "\n".join(lines)
