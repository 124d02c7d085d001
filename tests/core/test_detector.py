"""Tests for active failure detection (Table I)."""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.detector import ActiveDetector
from repro.core.types import FullKey
from repro.zk.server import ZkConfig


def build(n_nodes=5):
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3,
                           config=SednaConfig(num_vnodes=24,
                                              lease_base=0.3),
                           zk_config=ZkConfig(session_timeout=1.0))
    cluster.start()
    return cluster


def detectors_for(cluster, **kwargs):
    return [ActiveDetector(node, **kwargs)
            for node in cluster.nodes.values()]


class TestActiveDetector:
    def test_probes_run_quietly_on_healthy_cluster(self):
        cluster = build()
        dets = detectors_for(cluster, interval=0.5)
        for d in dets:
            d.start()
        cluster.settle(5.0)
        for d in dets:
            d.stop()
        assert all(d.probes > 0 for d in dets)
        assert all(d.deaths_confirmed == 0 for d in dets)
        assert all(d.proactive_recoveries == 0 for d in dets)

    def test_recovers_dead_node_without_any_traffic(self):
        """The gap active detection closes: full replication restored
        with ZERO client reads."""
        cluster = build()
        client = cluster.client()

        def seed():
            for i in range(25):
                yield from client.write_latest(f"ad{i}", f"v{i}")
            return True

        cluster.run(seed())
        dets = detectors_for(cluster, interval=0.5, repairs_per_pass=8)
        for d in dets:
            d.start()
        cluster.crash_node("node2")
        # No reads at all: only heartbeat expiry + active probes.
        cluster.settle(20.0)
        for d in dets:
            d.stop()

        live_dets = [d for d in dets if d.node.running]
        assert any(d.deaths_confirmed > 0 for d in live_dets)
        under = []
        for i in range(25):
            encoded = FullKey.of(f"ad{i}").encoded()
            copies = cluster.total_replicas_of(encoded)
            if copies < 3:
                under.append((f"ad{i}", copies))
        assert not under, f"still under-replicated without reads: {under}"

    def test_transient_silence_not_treated_as_death(self):
        """A node whose ZooKeeper session is alive is never repaired
        away, however unresponsive its data endpoint briefly is."""
        cluster = build()
        dets = detectors_for(cluster, interval=0.5, probe_timeout=0.2)
        for d in dets:
            d.start()
        # Take only the *data* endpoint down briefly; the -zk endpoint
        # (and so the session) stays up.
        cluster.network.endpoints["node3"].crash()
        cluster.settle(3.0)
        cluster.network.endpoints["node3"].restart()
        cluster.settle(2.0)
        for d in dets:
            d.stop()
        assert all(d.deaths_confirmed == 0 for d in dets), \
            "ephemeral-alive peers must never be declared dead"
        # Mapping unchanged: node3 still owns its vnodes.
        ring = cluster.nodes["node0"].cache.ring
        assert len(ring.vnodes_of("node3")) > 0

    def test_bounded_repairs_per_pass(self):
        cluster = build()
        client = cluster.client()

        def seed():
            for i in range(30):
                yield from client.write_latest(f"b{i}", i)
            return True

        cluster.run(seed())
        det = ActiveDetector(cluster.nodes["node0"], interval=1.0,
                             repairs_per_pass=2)
        det.start()
        cluster.crash_node("node1")
        cluster.settle(2.5)  # expiry + first detection pass
        first_burst = det.proactive_recoveries
        assert first_burst <= 2 * 2, (
            "repairs must be paced, not a thundering herd")
        cluster.settle(20.0)
        det.stop()
