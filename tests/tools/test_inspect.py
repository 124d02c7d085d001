"""Tests for the cluster inspection tooling."""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.hashring import build_assignment
from repro.tools.inspect import (describe_cluster, node_summary,
                                 replication_health, ring_summary,
                                 zk_summary)


@pytest.fixture(scope="module")
def cluster():
    c = SednaCluster(n_nodes=3, zk_size=3,
                     config=SednaConfig(num_vnodes=24))
    c.start()
    client = c.client()

    def seed():
        for i in range(10):
            yield from client.write_latest(f"i{i}", i)
        return True

    c.run(seed())
    return c


class TestSummaries:
    def test_ring_summary(self, cluster):
        ring = ring_summary(cluster)
        assert ring["num_vnodes"] == 24
        assert sum(ring["owners"].values()) == 24
        assert ring["unassigned"] == 0
        assert ring["spread"] <= 1

    def test_ring_summary_counts_a_node_that_owns_nothing(self):
        c = SednaCluster(n_nodes=4, zk_size=3,
                         config=SednaConfig(num_vnodes=16))
        ring = c.nodes["node0"].cache.ring
        for vnode, owner in enumerate(build_assignment(16, c.node_names)):
            ring.assign(vnode, "node0" if owner == "node3" else owner)
        summary = ring_summary(c)
        assert summary["owners"] == {"node0": 8, "node1": 4, "node2": 4,
                                     "node3": 0}
        assert summary["spread"] == 8

    def test_zk_summary(self, cluster):
        zk = zk_summary(cluster)
        assert zk["leader"] is not None
        assert len(zk["members"]) == 3
        roles = [m["role"] for m in zk["members"]]
        assert roles.count("leader") == 1

    def test_node_summary(self, cluster):
        rows = node_summary(cluster)
        assert len(rows) == 3
        assert all(row["running"] for row in rows)
        assert sum(row["keys"] for row in rows) == 30  # 10 keys x 3 replicas

    def test_replication_health(self, cluster):
        health = replication_health(cluster, [f"i{i}" for i in range(10)])
        assert health["histogram"] == {3: 10}
        assert health["under_replicated"] == []

    def test_replication_health_flags_missing(self, cluster):
        health = replication_health(cluster, ["never-written"])
        assert health["histogram"] == {0: 1}
        assert health["under_replicated"] == ["never-written"]


class TestDescribe:
    def test_full_report_renders(self, cluster):
        report = describe_cluster(cluster,
                                  sample_keys=[f"i{i}" for i in range(5)])
        assert "ZooKeeper sub-cluster" in report
        assert "Ring: 24 vnodes" in report
        assert "Real nodes" in report
        assert "Replication health" in report
        assert "node0" in report and "zk0" in report

    def test_report_shows_down_node(self, cluster):
        cluster.crash_node("node2")
        try:
            report = describe_cluster(cluster)
            assert "DOWN" in report
        finally:
            cluster.restart_node("node2")
