"""Regeneration of the paper's evaluation figures (§VI.A).

Each ``figN`` function builds fresh simulated worlds, replays the
paper's workload, and returns a
:class:`~repro.bench.harness.FigureResult` whose expectations encode
the *shape* the paper reports (who wins, roughly by how much).  We do
not chase absolute milliseconds — the substrate is a calibrated
simulator, not the authors' 2012 testbed — but every qualitative claim
of the figures is asserted.
"""

from __future__ import annotations

from ..baselines.memcached import MemcachedCluster
from ..core.cluster import SednaCluster
from ..core.config import SednaConfig
from ..core.stats import LatencySeries
from ..net.latency import LanGigabit
from ..net.simulator import AllOf, Simulator
from ..net.transport import Network
from ..workloads.kv import PAPER_VALUE, paper_keys
from .harness import FigureResult

__all__ = ["sedna_write_read", "memcached_write_read", "fig7a", "fig7b",
           "fig8"]


def _sample_every(ops: int) -> int:
    return max(1, ops // 25)


def sedna_write_read(ops: int, seed: int = 42, n_nodes: int = 9,
                     n_clients: int = 1) -> dict:
    """Run the §VI.A Sedna load test: ``ops`` writes then ``ops`` reads
    per client, 20-byte keys/values, smart (zero-hop) clients.

    Returns per-phase cumulative-ms series (averaged over clients) and
    totals, plus the aggregate wall (simulated) duration.
    """
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3,
                           config=SednaConfig(num_vnodes=512), seed=seed)
    cluster.start()
    every = _sample_every(ops)
    clients = [cluster.smart_client(f"bench{i}") for i in range(n_clients)]
    keyspaces = [paper_keys(ops, seed=seed + i) for i in range(n_clients)]
    series = {i: (LatencySeries("write"), LatencySeries("read"))
              for i in range(n_clients)}

    def run_one(i):
        client = clients[i]
        wseries, rseries = series[i]
        yield from client.connect()
        for key in keyspaces[i]:
            yield from client.write_latest(key.decode(), PAPER_VALUE.decode())
            wseries.record(client.write_latencies[-1], every=every)
        for key in keyspaces[i]:
            yield from client.read_latest(key.decode())
            rseries.record(client.read_latencies[-1], every=every)
        wseries.finish()
        rseries.finish()

    t0 = cluster.sim.now
    procs = [cluster.sim.process(run_one(i), name=f"bench{i}")
             for i in range(n_clients)]
    cluster.sim.run(until=AllOf(cluster.sim, procs))
    duration = cluster.sim.now - t0

    def avg_points(idx):
        base = series[0][idx].points
        return [(n, sum(series[i][idx].points[j][1]
                        for i in range(n_clients)) / n_clients)
                for j, (n, _t) in enumerate(base)]

    return {
        "write_points": avg_points(0),
        "read_points": avg_points(1),
        "write_total_ms": sum(s[0].total_ms for s in series.values())
        / n_clients,
        "read_total_ms": sum(s[1].total_ms for s in series.values())
        / n_clients,
        "duration_s": duration,
        "ops_per_client": ops,
        "clients": n_clients,
        "failures": sum(c.failures for c in clients),
    }


def memcached_write_read(ops: int, copies: int, seed: int = 42,
                         n_servers: int = 9) -> dict:
    """Run the §VI.A memcached comparison: same keys, ``copies`` copies
    written/read *sequentially* per op by a client-side sharding client."""
    sim = Simulator()
    network = Network(sim, latency=LanGigabit(seed=seed))
    cluster = MemcachedCluster(sim, network, size=n_servers)
    client = cluster.client("mc-bench")
    keys = paper_keys(ops, seed=seed)
    every = _sample_every(ops)
    wseries = LatencySeries("write")
    rseries = LatencySeries("read")

    def run():
        for key in keys:
            yield from client.set(key, PAPER_VALUE, copies=copies)
            wseries.record(client.write_latencies[-1], every=every)
        for key in keys:
            yield from client.get(key, copies=copies)
            rseries.record(client.read_latencies[-1], every=every)
        wseries.finish()
        rseries.finish()
        return True

    proc = sim.process(run(), name="mc-bench")
    sim.run(until=proc)
    return {
        "write_points": wseries.points,
        "read_points": rseries.points,
        "write_total_ms": wseries.total_ms,
        "read_total_ms": rseries.total_ms,
        "failures": client.failures,
    }


def _linearity(points: list[tuple[int, float]]) -> float:
    """Max relative deviation of the cumulative curve from linearity —
    the paper's 'Sedna performance is quite stable' claim."""
    if len(points) < 3:
        return 0.0
    n_end, t_end = points[-1]
    worst = 0.0
    for n, t in points:
        expected = t_end * (n / n_end)
        if expected > 0:
            worst = max(worst, abs(t - expected) / expected)
    return worst


def fig7a(ops: int = 10_000, seed: int = 42) -> FigureResult:
    """Fig. 7(a): Memcached writing/reading 3 copies sequentially vs
    Sedna's 3 parallel replicas.  Expectation: Sedna wins both."""
    sedna = sedna_write_read(ops, seed=seed)
    mc3 = memcached_write_read(ops, copies=3, seed=seed)
    result = FigureResult(
        "Fig.7(a)", "W/R cumulative time — Memcached(3x sequential) vs Sedna")
    result.series = {
        "sedna write": sedna["write_points"],
        "sedna read": sedna["read_points"],
        "memcached(3) write": mc3["write_points"],
        "memcached(3) read": mc3["read_points"],
    }
    result.totals = {
        "sedna write": sedna["write_total_ms"],
        "sedna read": sedna["read_total_ms"],
        "memcached(3) write": mc3["write_total_ms"],
        "memcached(3) read": mc3["read_total_ms"],
    }
    result.expect(
        "sedna writes beat sequential 3-copy memcached writes",
        sedna["write_total_ms"] < mc3["write_total_ms"],
        f"{sedna['write_total_ms']:,.0f} vs {mc3['write_total_ms']:,.0f} ms")
    result.expect(
        "sedna reads beat sequential 3-copy memcached reads",
        sedna["read_total_ms"] < mc3["read_total_ms"],
        f"{sedna['read_total_ms']:,.0f} vs {mc3['read_total_ms']:,.0f} ms")
    result.expect(
        "no operation failures", sedna["failures"] == mc3["failures"] == 0)
    result.notes["speedup_write"] = (mc3["write_total_ms"]
                                     / sedna["write_total_ms"])
    return result


def fig7b(ops: int = 10_000, seed: int = 42) -> FigureResult:
    """Fig. 7(b): Memcached writing each datum once vs Sedna.

    Expectation: "Sedna performance is quite stable, and slightly
    slower than original write-once Memcached performance"."""
    sedna = sedna_write_read(ops, seed=seed)
    mc1 = memcached_write_read(ops, copies=1, seed=seed)
    result = FigureResult(
        "Fig.7(b)", "W/R cumulative time — Memcached(write-once) vs Sedna")
    result.series = {
        "sedna write": sedna["write_points"],
        "sedna read": sedna["read_points"],
        "memcached(1) write": mc1["write_points"],
        "memcached(1) read": mc1["read_points"],
    }
    result.totals = {
        "sedna write": sedna["write_total_ms"],
        "sedna read": sedna["read_total_ms"],
        "memcached(1) write": mc1["write_total_ms"],
        "memcached(1) read": mc1["read_total_ms"],
    }
    ratio_w = sedna["write_total_ms"] / mc1["write_total_ms"]
    result.expect(
        "sedna slightly slower than write-once memcached",
        1.0 < ratio_w < 2.5,
        f"sedna/mc1 write ratio {ratio_w:.2f} (3 parallel replicas vs 1 write)")
    stability = _linearity(sedna["write_points"])
    result.expect(
        "sedna performance is stable (linear cumulative curve)",
        stability < 0.15,
        f"max deviation from linearity {stability:.1%}")
    result.notes["ratio_write"] = ratio_w
    result.notes["ratio_read"] = (sedna["read_total_ms"]
                                  / mc1["read_total_ms"])
    return result


def fig8(ops: int = 5_000, seed: int = 42) -> FigureResult:
    """Fig. 8: one client vs nine concurrent clients.

    Expectations: per-client time rises under contention ("the
    individual client's speed slower"), aggregate throughput rises
    ("the overall throughput is larger than one client")."""
    one = sedna_write_read(ops, seed=seed, n_clients=1)
    nine = sedna_write_read(ops, seed=seed, n_clients=9)
    result = FigureResult("Fig.8", "R/W speed, nine clients vs one client")
    result.series = {
        "one client write": one["write_points"],
        "one client read": one["read_points"],
        "nine clients write": nine["write_points"],
        "nine clients read": nine["read_points"],
    }
    result.totals = {
        "one client write": one["write_total_ms"],
        "one client read": one["read_total_ms"],
        "nine clients write (per client)": nine["write_total_ms"],
        "nine clients read (per client)": nine["read_total_ms"],
    }
    result.expect(
        "per-client writes slower with nine concurrent clients",
        nine["write_total_ms"] > one["write_total_ms"] * 1.1,
        f"{nine['write_total_ms']:,.0f} vs {one['write_total_ms']:,.0f} ms")
    agg_one = 2 * ops / one["duration_s"]
    agg_nine = 9 * 2 * ops / nine["duration_s"]
    result.expect(
        "aggregate throughput higher with nine clients",
        agg_nine > agg_one * 2,
        f"{agg_nine:,.0f} vs {agg_one:,.0f} ops/s")
    result.notes["slowdown_per_client"] = (nine["write_total_ms"]
                                           / one["write_total_ms"])
    result.notes["throughput_gain"] = agg_nine / agg_one
    return result
