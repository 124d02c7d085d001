"""Vnode handoff warming: freshly claimed replicas refuse reads.

A node that claims a vnode pulls the previous owner's rows, but writes
routed through still-stale mapping caches keep landing on the old
replica set for up to a lease.  Until the delayed catch-up pull runs,
the claimer answering reads could return stale data (the chaos
harness caught this as an R+W>N freshness violation under churn) — so
the replica refuses with "warming" and the coordinator waits the
window out instead of failing the read.
"""

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.types import FullKey
from repro.net.rpc import RpcRejected
from repro.zk.server import ZkConfig


def build():
    cluster = SednaCluster(n_nodes=4, zk_size=3,
                           config=SednaConfig(num_vnodes=16,
                                              lease_base=0.3),
                           zk_config=ZkConfig(session_timeout=1.0))
    cluster.start()
    return cluster


def replica_set(cluster, key):
    ring = cluster.nodes["node0"].cache.ring
    return ring.replicas_for_key(key, cluster.config.replicas)


class TestHandoffWarming:
    def test_warming_replica_refuses_reads(self):
        cluster = build()
        client = cluster.smart_client("c1")
        cluster.run(client.connect())
        key = FullKey.of("wk").encoded()
        vnode_id, replicas = replica_set(cluster, key)
        cluster.run(client.coordinator.coordinate("sedna.write",
            {"key": key, "value": "v", "ts": 1.0, "source": "c1",
             "mode": "latest"}))
        holder = cluster.nodes[replicas[0]]
        holder.vstats.status(vnode_id).warming = True

        def probe():
            try:
                yield from client.rpc.call(
                    holder.name, "replica.read",
                    {"vnode": vnode_id, "key": key}, timeout=1.0)
            except RpcRejected as rej:
                return str(rej)
            return "answered"

        assert "warming" in cluster.run(probe())

    def test_coordinator_waits_out_warming(self):
        """Even with a read quorum blocked by warming replicas, the
        read returns the correct value once the window clears."""
        cluster = build()
        client = cluster.smart_client("c1")
        cluster.run(client.connect())
        key = FullKey.of("wk2").encoded()
        vnode_id, replicas = replica_set(cluster, key)
        cluster.run(client.coordinator.coordinate("sedna.write",
            {"key": key, "value": "fresh", "ts": 2.0, "source": "c1",
             "mode": "latest"}))
        # Block a full read quorum: all but one replica warming.
        statuses = [cluster.nodes[r].vstats.status(vnode_id)
                    for r in replicas[:-1]]
        for status in statuses:
            status.warming = True

        def clearer():
            yield cluster.sim.timeout(0.8)
            for status in statuses:
                status.warming = False
            return True

        def reader():
            t0 = cluster.sim.now
            result = yield from client.coordinator.coordinate("sedna.read",
                {"key": key, "mode": "latest"})
            return result, cluster.sim.now - t0

        results = cluster.run_all([clearer(), reader()])
        result, elapsed = results[1]
        assert result["found"] and result["value"] == "fresh"
        assert elapsed >= 0.8, "read must have waited for the handoff"

    def test_warming_persists_until_catchup_succeeds(self):
        """A predecessor that crashed mid-churn must not end warming.

        The delayed catch-up used to ignore its own failures: the pull
        from the dead predecessor timed out, the digest round swallowed
        its timeouts too, and a ``finally`` cleared ``warming`` anyway —
        silently re-opening the stale-read window.  Now the flag only
        clears once the pull succeeds or a digest-sync reaches *every*
        current replica (bounded retries before availability wins).
        """
        cluster = build()
        client = cluster.smart_client("c1")
        cluster.run(client.connect())
        key = FullKey.of("wk4").encoded()
        vnode_id, replicas = replica_set(cluster, key)
        cluster.run(client.coordinator.coordinate("sedna.write",
            {"key": key, "value": "acked", "ts": 4.0, "source": "c1",
             "mode": "latest"}))

        claimer = cluster.nodes[
            (set(cluster.nodes) - set(replicas)).pop()]
        predecessor = replicas[0]
        cluster.crash_node(predecessor)

        status = claimer.vstats.status(vnode_id)
        status.warming = True
        cluster.sim.process(
            claimer._finish_handoff(vnode_id, predecessor, status),
            name="handoff-under-test")

        # Past the old unconditional clear point (~lease*2 + pull and
        # digest timeouts): the catch-up cannot have completed — the
        # predecessor is down and unpullable, and the digest round
        # cannot reach it either — so reads must still be refused.
        cluster.settle(4.5)
        assert status.warming, (
            "warming cleared although the catch-up never succeeded")

        # Once the predecessor is back a retry completes the sync.
        cluster.restart_node(predecessor)
        cluster.settle(8.0)
        assert not status.warming
        assert claimer.store.read_all(key), (
            "catch-up ended without the acked value")

    def test_writes_accepted_while_warming(self):
        cluster = build()
        client = cluster.smart_client("c1")
        cluster.run(client.connect())
        key = FullKey.of("wk3").encoded()
        vnode_id, replicas = replica_set(cluster, key)
        for name in replicas:
            cluster.nodes[name].vstats.status(vnode_id).warming = True
        result = cluster.run(client.coordinator.coordinate("sedna.write",
            {"key": key, "value": "v", "ts": 3.0, "source": "c1",
             "mode": "latest"}))
        assert result["status"] == "ok"
