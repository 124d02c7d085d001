"""Design-choice ablations called out in DESIGN.md §4.

Each function isolates one mechanism the paper argues for and measures
both sides of the trade:

* :func:`zk_bottleneck` — §III.E's three mitigation strategies (local
  cache, adaptive lease, changelog refresh) against the naive and the
  watch-storm alternatives.
* :func:`ablation_quorum` — R/W/N settings vs read/write latency.
* :func:`ablation_vnodes` — virtual-node count vs load balance (§III.B).
* :func:`ablation_persistence` — none/snapshot/WAL vs write latency and
  crash-recoverable data (§III.C).
* :func:`ablation_fanout` — parallel vs sequential replica writes, the
  mechanism behind Fig. 7(a).
"""

from __future__ import annotations

from ..core.cache import MappingCache, ZkLayout
from ..core.cluster import SednaCluster
from ..core.config import SednaConfig
from ..core.coordinator import QuorumCoordinator
from ..core.stats import summarize
from ..workloads.kv import PAPER_VALUE, paper_keys
from ..zk.server import ZkConfig
from .harness import FigureResult, write_then_read

__all__ = ["zk_bottleneck", "ablation_quorum", "ablation_vnodes",
           "ablation_persistence", "ablation_fanout", "table1"]


# ---------------------------------------------------------------------------
# ZooKeeper bottleneck (§III.E)
# ---------------------------------------------------------------------------
def _churn_run(adaptive: bool, use_changelog: bool, duration: float = 20.0,
               churn_period: float = 1.0, seed: int = 42) -> dict:
    """One observer cache against a churning mapping; returns read costs."""
    cluster = SednaCluster(n_nodes=3, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=64, lease_base=1.0))
    cluster.start()
    observer = MappingCache(cluster.sim, cluster.ensemble.client("observer"),
                            cluster.config, adaptive=adaptive,
                            use_changelog=use_changelog)

    def boot():
        yield from observer.zk.connect()
        yield from observer.load_full()
        observer.start_lease_loop()
        return True

    cluster.run(boot())
    reads_before = observer.vnode_reads
    min_lease = {"value": observer.lease}

    def lease_sampler():
        while True:
            yield cluster.sim.timeout(0.1)
            min_lease["value"] = min(min_lease["value"], observer.lease)

    cluster.sim.process(lease_sampler(), name="lease-sampler")

    def churn():
        zk = cluster.ensemble.client("churner")
        yield from zk.connect()
        rounds = int(duration / churn_period)
        for r in range(rounds):
            vnode = (r * 7) % 64
            data, stat = yield from zk.get(ZkLayout.vnode(vnode))
            flipped = "node1" if data.decode() != "node1" else "node2"
            # The set and its changelog entry are one transaction, as
            # Placement.rewrite commits them.
            yield from zk.multi([
                zk.op_set(ZkLayout.vnode(vnode), flipped.encode(),
                          version=stat["version"]),
                zk.op_create(f"{ZkLayout.CHANGELOG}/e-",
                             str(vnode).encode(), sequential=True),
            ])
            yield cluster.sim.timeout(churn_period)
        return True

    cluster.run(churn())
    cluster.settle(3.0)
    observer.stop()
    return {
        "vnode_reads": observer.vnode_reads - reads_before,
        "refreshes": observer.incremental_refreshes,
        "full_loads": observer.full_loads - 1,
        "final_lease": observer.lease,
        "min_lease": min_lease["value"],
    }


def _watch_storm(n_watchers: int = 9, changes: int = 10,
                 seed: int = 42) -> int:
    """What Sedna avoids: every node watching every vnode znode.

    Returns the watch-event messages the ensemble pushes for a handful
    of mapping changes — the 'uncontrollable network storm' of §III.E.
    """
    cluster = SednaCluster(n_nodes=3, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=64))
    cluster.start()
    clients = [cluster.ensemble.client(f"watcher{i}")
               for i in range(n_watchers)]

    def hook_all(zk):
        yield from zk.connect()
        for v in range(64):
            yield from zk.get(ZkLayout.vnode(v), watch=lambda e: None)
        return True

    cluster.run_all([hook_all(zk) for zk in clients])
    sent_before = sum(s.watch_events_sent for s in cluster.ensemble.servers)

    def churn():
        zk = cluster.ensemble.client("churner")
        yield from zk.connect()
        for c in range(changes):
            yield from zk.set(ZkLayout.vnode(c), b"node1")
        return True

    cluster.run(churn())
    cluster.settle(1.0)
    return sum(s.watch_events_sent
               for s in cluster.ensemble.servers) - sent_before


def zk_bottleneck(duration: float = 20.0) -> FigureResult:
    """Compare the §III.E cache strategies plus the watch alternative."""
    naive = _churn_run(adaptive=False, use_changelog=False,
                       duration=duration)
    fixed = _churn_run(adaptive=False, use_changelog=True, duration=duration)
    adaptive = _churn_run(adaptive=True, use_changelog=True,
                          duration=duration)
    storm = _watch_storm()
    result = FigureResult(
        "§III.E", "ZooKeeper read-bottleneck mitigation strategies")
    result.totals = {
        "vnode reads — full reload each lease": float(naive["vnode_reads"]),
        "vnode reads — fixed lease + changelog": float(fixed["vnode_reads"]),
        "vnode reads — adaptive lease + changelog":
            float(adaptive["vnode_reads"]),
        "watch events for 10 changes x 9 watchers": float(storm),
    }
    result.expect(
        "changelog refresh reads far fewer vnodes than full reloads",
        fixed["vnode_reads"] * 5 < naive["vnode_reads"],
        f"{fixed['vnode_reads']} vs {naive['vnode_reads']}")
    result.expect(
        "adaptive lease shrinks under churn (and recovers after)",
        adaptive["min_lease"] < 1.0,
        f"min lease {adaptive['min_lease']:.2f}s from 1.0s base, "
        f"back to {adaptive['final_lease']:.2f}s when quiet")
    result.expect(
        "watches would storm (one event per watcher per change)",
        storm >= 9 * 10 * 0.8,
        f"{storm} watch events for 90 expected")
    result.notes.update(naive=naive, fixed=fixed, adaptive=adaptive,
                        watch_storm=storm)
    return result


# ---------------------------------------------------------------------------
# Quorum parameters (§III.C)
# ---------------------------------------------------------------------------
def _quorum_run(n: int, r: int, w: int, ops: int = 400,
                seed: int = 42) -> dict:
    cluster = SednaCluster(
        n_nodes=5, zk_size=3, seed=seed,
        config=SednaConfig(num_vnodes=64, replicas=n, read_quorum=r,
                           write_quorum=w))
    cluster.start()
    client = cluster.smart_client("q-bench")
    writes, reads = cluster.run(write_then_read(
        client, paper_keys(ops, seed=seed), read=True))
    return {
        "write": summarize(writes),
        "read": summarize(reads),
        "replica_writes": sum(n.replica_writes
                              for n in cluster.nodes.values()),
    }


def ablation_quorum(ops: int = 400) -> FigureResult:
    """R/W settings vs latency: writes pay for W, reads pay for R."""
    r2w2 = _quorum_run(3, 2, 2, ops)      # the paper's configuration
    r1w3 = _quorum_run(3, 1, 3, ops)      # read-optimised
    n5 = _quorum_run(5, 3, 3, ops)        # bigger quorum
    result = FigureResult("ablation", "Quorum parameters (N, R, W)")
    result.totals = {
        "N=3 R=2 W=2 write mean (ms)": r2w2["write"]["mean"] * 1e3,
        "N=3 R=2 W=2 read mean (ms)": r2w2["read"]["mean"] * 1e3,
        "N=3 R=1 W=3 write mean (ms)": r1w3["write"]["mean"] * 1e3,
        "N=3 R=1 W=3 read mean (ms)": r1w3["read"]["mean"] * 1e3,
        "N=5 R=3 W=3 write mean (ms)": n5["write"]["mean"] * 1e3,
        "N=3 replica writes": float(r2w2["replica_writes"]),
        "N=5 replica writes": float(n5["replica_writes"]),
    }
    result.expect(
        "W=3 writes wait for the slowest replica (slower than W=2)",
        r1w3["write"]["mean"] > r2w2["write"]["mean"],
        f"{r1w3['write']['mean']*1e3:.3f} vs {r2w2['write']['mean']*1e3:.3f} ms")
    result.expect(
        "R=1 reads return on the first reply (faster than R=2)",
        r1w3["read"]["mean"] < r2w2["read"]["mean"],
        f"{r1w3['read']['mean']*1e3:.3f} vs {r2w2['read']['mean']*1e3:.3f} ms")
    result.expect(
        "N=5 burns ~5/3 the replica work of N=3 for the same ops",
        n5["replica_writes"] > r2w2["replica_writes"] * 1.5,
        f"{n5['replica_writes']} vs {r2w2['replica_writes']} replica writes")
    return result


# ---------------------------------------------------------------------------
# Virtual-node count (§III.B)
# ---------------------------------------------------------------------------
def _vnode_run(num_vnodes: int, keys: int = 600, seed: int = 42) -> dict:
    # 4 nodes so coarse rings cannot divide evenly (5 vnodes / 4 nodes):
    # the imbalance the paper's virtual-node strategy exists to fix.
    cluster = SednaCluster(n_nodes=4, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=num_vnodes))
    cluster.start()
    client = cluster.smart_client("v-bench")
    cluster.run(write_then_read(client, paper_keys(keys, seed=seed)))
    cluster.settle(0.5)
    loads = sorted(len(node.store) for node in cluster.nodes.values())
    mean = sum(loads) / len(loads)
    return {"loads": loads, "spread": (loads[-1] - loads[0]) / mean}


def ablation_vnodes(keys: int = 600) -> FigureResult:
    """More virtual nodes -> finer, flatter load distribution (§III.B)."""
    few = _vnode_run(5, keys)
    some = _vnode_run(40, keys)
    many = _vnode_run(320, keys)
    result = FigureResult("ablation", "Virtual-node count vs load balance")
    result.totals = {
        "5 vnodes: relative spread": few["spread"],
        "40 vnodes: relative spread": some["spread"],
        "320 vnodes: relative spread": many["spread"],
    }
    result.expect(
        "hundreds of vnodes balance better than a handful",
        many["spread"] < few["spread"],
        f"{many['spread']:.2f} vs {few['spread']:.2f}")
    result.notes.update(few=few, some=some, many=many)
    return result


# ---------------------------------------------------------------------------
# Persistence strategy (§III.C)
# ---------------------------------------------------------------------------
def _persistence_run(kind: str, ops: int = 300, seed: int = 42) -> dict:
    cluster = SednaCluster(
        n_nodes=3, zk_size=3, seed=seed,
        config=SednaConfig(num_vnodes=32, persistence=kind,
                           snapshot_interval=1.0),
        zk_config=ZkConfig(session_timeout=1.0))
    cluster.start()
    client = cluster.smart_client("p-bench")
    writes, _reads = cluster.run(write_then_read(client,
                                                 paper_keys(ops, seed=seed)))
    cluster.settle(2.0)  # let a snapshot interval pass
    # Whole-cluster power loss.
    total_before = sum(len(n.store) for n in cluster.nodes.values())
    for name in cluster.node_names:
        cluster.crash_node(name)
    cluster.settle(4.0)
    for name in cluster.node_names:
        cluster.restart_node(name)
    total_after = sum(len(n.store) for n in cluster.nodes.values())
    return {
        "write_mean": summarize(writes)["mean"],
        "recovered_fraction": total_after / max(1, total_before),
    }


def ablation_persistence(ops: int = 300) -> FigureResult:
    """'Different speed and availability according users' needs'."""
    none = _persistence_run("none", ops)
    snap = _persistence_run("snapshot", ops)
    wal = _persistence_run("wal", ops)
    result = FigureResult("ablation",
                          "Persistence strategy: speed vs availability")
    result.totals = {
        "none: write mean (ms)": none["write_mean"] * 1e3,
        "snapshot: write mean (ms)": snap["write_mean"] * 1e3,
        "wal: write mean (ms)": wal["write_mean"] * 1e3,
        "none: recovered after power loss": none["recovered_fraction"],
        "snapshot: recovered after power loss": snap["recovered_fraction"],
        "wal: recovered after power loss": wal["recovered_fraction"],
    }
    result.expect(
        "WAL writes slower than no persistence",
        wal["write_mean"] > none["write_mean"],
        f"{wal['write_mean']*1e3:.3f} vs {none['write_mean']*1e3:.3f} ms")
    result.expect(
        "snapshot adds no per-write cost",
        snap["write_mean"] < wal["write_mean"],
        f"{snap['write_mean']*1e3:.3f} vs {wal['write_mean']*1e3:.3f} ms")
    result.expect(
        "WAL recovers everything after whole-cluster power loss",
        wal["recovered_fraction"] >= 0.999,
        f"{wal['recovered_fraction']:.1%}")
    result.expect(
        "no persistence recovers nothing",
        none["recovered_fraction"] < 0.01,
        f"{none['recovered_fraction']:.1%}")
    result.expect(
        "snapshot recovers most data (bounded loss window)",
        snap["recovered_fraction"] > 0.9,
        f"{snap['recovered_fraction']:.1%}")
    return result


# ---------------------------------------------------------------------------
# Parallel vs sequential replica fan-out (the Fig. 7(a) mechanism)
# ---------------------------------------------------------------------------
def ablation_fanout(ops: int = 400, seed: int = 42) -> FigureResult:
    """Write 3 replicas in parallel (Sedna) vs one-by-one (memcached
    client style), on the *same* cluster and replica plane."""
    cluster = SednaCluster(n_nodes=5, zk_size=3, seed=seed,
                           config=SednaConfig(num_vnodes=64))
    cluster.start()
    parallel_client = cluster.smart_client("fan-parallel")
    seq_client = cluster.smart_client("fan-seq")
    keys = paper_keys(ops, seed=seed)

    def run_sequential():
        """Same replica writes, issued one at a time."""
        yield from seq_client.connect()
        coord: QuorumCoordinator = seq_client.coordinator
        t_list = []
        for key in keys:
            encoded_key = f"seq\x1fdefault\x1fs-{key.decode()}"
            ts = seq_client._timestamp()
            vnode, replicas = coord.cache.replicas_for_key(encoded_key)
            t0 = cluster.sim.now
            for replica in replicas:
                payload = {"vnode": vnode, "key": encoded_key,
                           "value": PAPER_VALUE.decode(), "ts": ts,
                           "source": seq_client.name, "mode": "latest"}
                yield from coord.rpc.call(replica, "replica.write", payload,
                                          timeout=1.0)
            t_list.append(cluster.sim.now - t0)
        return t_list

    par_writes, _reads = cluster.run(write_then_read(parallel_client, keys,
                                                     prefix="p-"))
    seq_writes = cluster.run(run_sequential())
    par = summarize(par_writes)
    seq = summarize(seq_writes)
    result = FigureResult("ablation",
                          "Replica fan-out: parallel vs sequential")
    result.totals = {
        "parallel write mean (ms)": par["mean"] * 1e3,
        "sequential write mean (ms)": seq["mean"] * 1e3,
    }
    speedup = seq["mean"] / par["mean"]
    result.expect(
        "parallel fan-out is at least 1.8x faster than sequential",
        speedup > 1.8,
        f"speedup {speedup:.2f}x")
    result.notes["speedup"] = speedup
    return result


# ---------------------------------------------------------------------------
# Table I — technique summary, verified live
# ---------------------------------------------------------------------------
def table1() -> FigureResult:
    """Regenerate Table I: each technique row is checked against the
    living system, with the implementing module recorded."""
    cluster = SednaCluster(n_nodes=4, zk_size=3,
                           config=SednaConfig(num_vnodes=32),
                           zk_config=ZkConfig(session_timeout=1.0))
    cluster.start()
    client = cluster.smart_client("t1")

    def seed():
        yield from client.connect()
        for i in range(20):
            yield from client.write_latest(f"t1-{i}", i)
        return True

    cluster.run(seed())
    cluster.settle(0.5)
    result = FigureResult("Table I", "Summary of Sedna techniques")

    # Partitioning: consistent hashing, incremental scalability.
    counts = [len(n.cache.ring.vnodes_of(name))
              for name, n in cluster.nodes.items()]
    result.expect(
        "Partitioning — consistent hashing (repro.core.hashring)",
        max(counts) - min(counts) <= 1,
        f"vnode counts {counts}")

    # Replication: eventual consistency via quorum.
    from repro.core.types import FullKey
    replicated = all(
        cluster.total_replicas_of(FullKey.of(f"t1-{i}").encoded()) == 3
        for i in range(20))
    result.expect(
        "Replication — quorum / eventual consistency (repro.core.coordinator)",
        replicated, "every key on N=3 replicas")

    # Node management: ZooKeeper sub-cluster, no single point of failure.
    cluster.ensemble.crash("zk0")  # kill the ZK *leader*
    cluster.settle(6.0)
    leader = cluster.ensemble.leader()
    result.expect(
        "Node management — ZooKeeper sub-cluster survives leader loss "
        "(repro.zk.ensemble)",
        leader is not None and leader.name != "zk0",
        f"new leader {leader.name if leader else None}")

    # Lock-free read/write.
    def concurrent_writes():
        a = cluster.smart_client("t1a")
        b = cluster.smart_client("t1b")

        def w(c, v):
            yield from c.connect()
            status = yield from c.write_latest("contend", v)
            return status

        return cluster.run_all([w(a, "x"), w(b, "y")])

    statuses = concurrent_writes()
    result.expect(
        "Read & write — lock-free timestamped writes (repro.storage.versioned)",
        all(s in ("ok", "outdated") for s in statuses),
        f"concurrent statuses {statuses}")

    # Failure detection: heartbeat + lazy recovery.
    cluster.crash_node("node3")
    cluster.settle(5.0)
    zk_leader = cluster.ensemble.leader()
    gone = "node3" not in zk_leader.tree.get_children("/sedna/real_nodes")
    result.expect(
        "Failure detection — heartbeat expiry in ZooKeeper (repro.zk.session)",
        gone, "dead node's ephemeral removed")

    # Persistency strategy: pluggable.
    from repro.persistence.strategy import make_strategy
    from repro.persistence.disk import SimDisk
    kinds = [make_strategy(k, SimDisk(), "n", 1.0).name
             for k in ("none", "snapshot", "wal")]
    result.expect(
        "Persistency — periodic flush or WAL (repro.persistence.strategy)",
        kinds == ["none", "snapshot", "wal"], str(kinds))
    return result
