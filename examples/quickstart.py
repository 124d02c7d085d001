#!/usr/bin/env python
"""Quickstart: boot a Sedna cluster and use the §III.F APIs.

Runs a 9-server deployment (3 of them also hosting the ZooKeeper
sub-cluster, as in the paper's testbed), then exercises:

* ``write_latest`` / ``read_latest`` — lock-free last-write-wins;
* ``write_all`` / ``read_all`` — per-source value lists;
* the hierarchical data space (datasets and tables);
* the zero-hop smart client;
* a node crash with lazy read-driven recovery.

Everything runs on the deterministic simulated network, so the timings
printed are *simulated* milliseconds — reproducible across runs.

Usage::

    python examples/quickstart.py
"""

from repro import SednaCluster, SednaConfig
from repro.core.types import FullKey


def main() -> None:
    print("Booting Sedna: 9 real nodes + 3-member ZooKeeper sub-cluster...")
    cluster = SednaCluster(n_nodes=9, zk_size=3,
                           config=SednaConfig(num_vnodes=512))
    cluster.start()
    print(f"  up at simulated t={cluster.sim.now:.2f}s; "
          f"{cluster.config.num_vnodes} virtual nodes, "
          f"N={cluster.config.replicas} R={cluster.config.read_quorum} "
          f"W={cluster.config.write_quorum}\n")

    # ------------------------------------------------------------------
    # 1. Basic write/read through a thin client (coordinator on a node).
    # ------------------------------------------------------------------
    client = cluster.client("app")
    sim = cluster.sim

    def basic():
        t0 = sim.now
        status = yield from client.write_latest("greeting", "hello, sedna")
        t1 = sim.now
        value = yield from client.read_latest("greeting")
        return status, value, t1 - t0, sim.now - t1

    status, value, write_s, read_s = cluster.run(basic())
    print(f"write_latest('greeting') -> {status};"
          f" read_latest -> {value!r}")
    print(f"  write latency {write_s*1e3:.3f} ms, "
          f"read latency {read_s*1e3:.3f} ms (simulated)")

    # ------------------------------------------------------------------
    # 2. write_all: one element per source server (§III.F).
    # ------------------------------------------------------------------
    crawler_a = cluster.client("crawler-a")
    crawler_b = cluster.client("crawler-b")

    def multi_source():
        yield from crawler_a.write_all("user42/profile", "seen-by-a")
        yield from crawler_b.write_all("user42/profile", "seen-by-b")
        return (yield from crawler_a.read_all("user42/profile"))

    elements = cluster.run(multi_source())
    print("\nwrite_all from two crawlers; read_all returns the value list:")
    for el in elements:
        print(f"  source={el.source:10s} ts={el.timestamp:.3f} "
              f"value={el.value!r}")

    # ------------------------------------------------------------------
    # 3. Hierarchical data space: datasets and tables (§II.A, Fig. 5).
    # ------------------------------------------------------------------
    def hierarchical():
        yield from client.write_latest("k1", "in tweets", table="tweets",
                                       dataset="web")
        t0 = sim.now
        yield from client.write_latest("k1", "in users", table="users",
                                       dataset="web")
        write_s = sim.now - t0
        t = yield from client.read_latest("k1", table="tweets", dataset="web")
        u = yield from client.read_latest("k1", table="users", dataset="web")
        return t, u, write_s

    t, u, thin_write_s = cluster.run(hierarchical())
    print(f"\nsame key, two tables: web/tweets/k1={t!r}, web/users/k1={u!r}")

    # ------------------------------------------------------------------
    # 4. The zero-hop smart client (§VII).
    # ------------------------------------------------------------------
    smart = cluster.smart_client("fastpath")

    def zero_hop():
        yield from smart.connect()
        t0 = sim.now
        yield from smart.write_latest("direct", "no extra hop")
        write_s = sim.now - t0
        return (yield from smart.read_latest("direct")), write_s

    direct, smart_write_s = cluster.run(zero_hop())
    print(f"\nsmart client (zero-hop DHT): {direct!r}")
    print(f"  smart write {smart_write_s*1e3:.3f} ms vs thin "
          f"client {thin_write_s*1e3:.3f} ms")

    # ------------------------------------------------------------------
    # 5. Crash a node; reads keep working and lazily repair (§III.C).
    # ------------------------------------------------------------------
    encoded = FullKey.of("greeting").encoded()
    print(f"\nreplicas of 'greeting' before crash: "
          f"{cluster.total_replicas_of(encoded)}")
    victim = next(name for name, node in cluster.nodes.items()
                  if encoded in node.store)
    cluster.crash_node(victim)
    print(f"crashed {victim} (a replica holder); waiting for its "
          f"ZooKeeper session to expire...")
    cluster.settle(5.0)

    def read_after_crash():
        return (yield from client.read_latest("greeting"))

    print(f"read_latest after crash -> {cluster.run(read_after_crash())!r}")
    cluster.settle(3.0)  # async re-duplication finishes
    print(f"replicas of 'greeting' after lazy recovery: "
          f"{cluster.total_replicas_of(encoded)}")

    stats = cluster.stats()
    recoveries = sum(n["recoveries"] for n in stats["nodes"])
    print(f"\ncluster totals: {stats['total_keys']} stored rows, "
          f"{recoveries} vnode recoveries, "
          f"{stats['network']['delivered']:,} messages delivered")


if __name__ == "__main__":
    main()
