"""§VII design-argument ablations.

The related-work section justifies three Sedna design choices against
the Dynamo/Cassandra/Chord lineage.  Each claim gets a measurement:

* **zero-hop vs multi-hop routing** — "we avoid routing requests
  through multiple nodes like Chord use";
* **ZooKeeper membership vs gossip** — "avoid Gossip mechanism to
  maintain a consistent cluster status like Cassandra and Redis does";
* **timestamp LWW vs read-before-write** — "The write operation in
  Dynamo also requires a read to be performed for managing the vector
  timestamps, this would limit the performance when systems need to
  handle a very high write throughput."
"""

from __future__ import annotations

from ..baselines.chord import ChordClient, ChordNode, ChordRing
from ..core.cluster import SednaCluster
from ..core.config import SednaConfig
from ..core.stats import summarize
from ..gossip.membership import GossipCluster
from ..net.latency import LanGigabit
from ..net.simulator import Simulator
from ..net.transport import Network
from ..workloads.kv import PAPER_VALUE, paper_keys
from .harness import FigureResult, write_then_read

__all__ = ["ablation_routing", "ablation_membership",
           "ablation_write_protocol"]


def ablation_routing(ops: int = 300, n_nodes: int = 16,
                     seed: int = 42) -> FigureResult:
    """Zero-hop (Sedna) vs Chord multi-hop lookup latency."""
    # Chord side.
    sim = Simulator()
    net = Network(sim, latency=LanGigabit(seed=seed))
    names = [f"ch{i}" for i in range(n_nodes)]
    ring = ChordRing(names)
    for name in names:
        ChordNode(sim, net, name, ring)
    chord_client = ChordClient(sim, net, "chord-cli", names[0])
    keys = paper_keys(ops, seed=seed)

    def chord_run():
        for key in keys:
            yield from chord_client.set(key, PAPER_VALUE)
        for key in keys:
            yield from chord_client.get(key)
        return True

    proc = sim.process(chord_run())
    sim.run(until=proc)
    chord = summarize(chord_client.op_latencies)
    mean_hops = (sum(chord_client.lookup_hops)
                 / len(chord_client.lookup_hops))

    # Sedna side (same workload, zero-hop smart client, N=1 replica to
    # isolate pure routing: no replication fan-out in either system).
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=256, replicas=1,
                                              read_quorum=1, write_quorum=1))
    cluster.start()
    sedna_client = cluster.smart_client("route-cli")
    cluster.run(write_then_read(sedna_client, keys, value="v", read=True))
    sedna = summarize(sedna_client.write_latencies
                      + sedna_client.read_latencies)

    result = FigureResult("§VII-routing",
                          "Zero-hop DHT vs Chord multi-hop lookup")
    result.totals = {
        "chord mean op latency (ms)": chord["mean"] * 1e3,
        "chord mean lookup hops": mean_hops,
        "sedna zero-hop mean op latency (ms)": sedna["mean"] * 1e3,
    }
    ratio = chord["mean"] / sedna["mean"]
    result.expect(
        "zero-hop beats multi-hop by a multiple",
        ratio > 2.0,
        f"chord/sedna latency ratio {ratio:.1f}x at {mean_hops:.1f} hops")
    result.expect(
        "chord hop count is logarithmic, not constant",
        1.5 < mean_hops < 10,
        f"{mean_hops:.1f} mean hops for {n_nodes} nodes")
    result.notes.update(chord=chord, sedna=sedna, hops=mean_hops)
    return result


def ablation_membership(n_nodes: int = 18, duration: float = 30.0,
                        seed: int = 42) -> FigureResult:
    """ZooKeeper-based membership vs gossip: steady-state network cost.

    Both configured for the same worst-case failure-detection latency
    (~2 s).  The §VII claim is about overhead and consistency: gossip
    pushes O(view) bytes per message from every node continuously,
    while heartbeats to a ZooKeeper sub-cluster are O(1) pings whose
    state converges at the quorum, not eventually.
    """
    # Gossip side.  Push gossip needs a suspicion window of several
    # rounds at this size or healthy members flap; 4 s here vs the ZK
    # session timeout of 2 s — gossip pays MORE bytes for WORSE
    # detection latency, which only strengthens the §VII argument.
    sim_g = Simulator()
    net_g = Network(sim_g, latency=LanGigabit(seed=seed))
    gossip = GossipCluster(sim_g, net_g, size=n_nodes, interval=0.66,
                           fanout=2, fail_after=4.0, rng_seed=seed)
    gossip.start()
    sim_g.run(until=10.0)  # warm-up / convergence
    sent_before = gossip.total_messages()
    bytes_before = sum(net_g.endpoints[n].sent_bytes for n in gossip.names)
    sim_g.run(until=10.0 + duration)
    gossip_msgs = gossip.total_messages() - sent_before
    gossip_bytes = (sum(net_g.endpoints[n].sent_bytes
                        for n in gossip.names) - bytes_before)
    converged = gossip.converged()

    # ZooKeeper side: n session pings per 0.66 s (timeout 2 s).
    from ..zk.server import ZkConfig
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=64),
                           zk_config=ZkConfig(session_timeout=2.0))
    cluster.start()
    cluster.settle(2.0)  # steady state

    def zk_traffic_bytes():
        return sum(cluster.network.endpoints[f"node{i}-zk"].sent_bytes
                   for i in range(n_nodes))

    bytes_before = zk_traffic_bytes()
    cluster.settle(duration)
    zk_bytes = zk_traffic_bytes() - bytes_before

    result = FigureResult("§VII-membership",
                          "ZooKeeper sub-cluster vs gossip membership")
    result.totals = {
        f"gossip bytes/{duration:.0f}s": float(gossip_bytes),
        f"zk heartbeat bytes/{duration:.0f}s": float(zk_bytes),
        "gossip messages": float(gossip_msgs),
    }
    result.expect(
        "gossip converged (it does work; the cost is the point)",
        converged)
    result.expect(
        "ZooKeeper membership moves fewer bytes at equal detection "
        "latency",
        zk_bytes < gossip_bytes,
        f"{zk_bytes:,} vs {gossip_bytes:,} bytes")
    result.notes.update(gossip_bytes=gossip_bytes, zk_bytes=zk_bytes,
                        gossip_msgs=gossip_msgs)
    return result


def ablation_write_protocol(ops: int = 300, seed: int = 42) -> FigureResult:
    """Sedna LWW writes vs Dynamo-style read-before-write."""
    cluster = SednaCluster(n_nodes=5, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=64))
    cluster.start()
    lww = cluster.smart_client("lww")
    rbw = cluster.smart_client("rbw")
    keys = paper_keys(ops, seed=seed)

    def rbw_run():
        """Dynamo: a write first reads the current version vector."""
        yield from rbw.connect()
        for key in keys:
            yield from rbw.read_all(f"r-{key.decode()}")   # fetch context
            yield from rbw.write_latest(f"r-{key.decode()}", "v")
        return True

    cluster.run(write_then_read(lww, keys, value="v", prefix="l-"))
    cluster.run(rbw_run())
    lww_stats = summarize(lww.write_latencies)
    # For read-before-write, one logical write = one read + one write.
    paired = [r + w for r, w in zip(rbw.read_latencies,
                                    rbw.write_latencies)]
    rbw_stats = summarize(paired)
    result = FigureResult(
        "§VII-write", "LWW timestamps vs read-before-write (Dynamo)")
    result.totals = {
        "lww write mean (ms)": lww_stats["mean"] * 1e3,
        "read-before-write mean (ms)": rbw_stats["mean"] * 1e3,
    }
    ratio = rbw_stats["mean"] / lww_stats["mean"]
    result.expect(
        "read-before-write roughly doubles the write latency",
        1.6 < ratio < 3.0,
        f"ratio {ratio:.2f}x")
    result.notes["ratio"] = ratio
    return result
