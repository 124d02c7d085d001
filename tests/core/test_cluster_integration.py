"""Integration tests: full Sedna cluster end-to-end behaviour."""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.types import FullKey
from repro.storage.versioned import WriteOutcome
from repro.zk.server import ZkConfig


def small_cluster(n_nodes=4, **cfg_kwargs):
    cfg_kwargs.setdefault("num_vnodes", 32)
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3,
                           config=SednaConfig(**cfg_kwargs))
    cluster.start()
    return cluster


@pytest.fixture(scope="module")
def cluster():
    return small_cluster()


class TestWriteRead:
    def test_write_then_read_latest(self, cluster):
        client = cluster.client()

        def script():
            status = yield from client.write_latest("k1", "v1")
            value = yield from client.read_latest("k1")
            return status, value

        status, value = cluster.run(script())
        assert status == WriteOutcome.OK
        assert value == "v1"

    def test_read_missing_returns_none(self, cluster):
        client = cluster.client()

        def script():
            return (yield from client.read_latest("never-written"))

        assert cluster.run(script()) is None

    def test_overwrite_visible(self, cluster):
        client = cluster.client()

        def script():
            yield from client.write_latest("k2", "old")
            yield from client.write_latest("k2", "new")
            return (yield from client.read_latest("k2"))

        assert cluster.run(script()) == "new"

    def test_write_all_value_list(self, cluster):
        c1 = cluster.client("wa-c1")
        c2 = cluster.client("wa-c2")

        def script():
            yield from c1.write_all("shared", "from-c1")
            yield from c2.write_all("shared", "from-c2")
            return (yield from c1.read_all("shared"))

        elements = cluster.run(script())
        assert {e.source for e in elements} == {"wa-c1", "wa-c2"}

    def test_delete(self, cluster):
        client = cluster.client()

        def script():
            yield from client.write_latest("k3", "v")
            ok = yield from client.delete("k3")
            value = yield from client.read_latest("k3")
            return ok, value

        ok, value = cluster.run(script())
        assert ok and value is None

    def test_tables_isolate_keys(self, cluster):
        client = cluster.client()

        def script():
            yield from client.write_latest("k", "in-t1", table="t1")
            yield from client.write_latest("k", "in-t2", table="t2")
            v1 = yield from client.read_latest("k", table="t1")
            v2 = yield from client.read_latest("k", table="t2")
            return v1, v2

        assert cluster.run(script()) == ("in-t1", "in-t2")

    def test_latencies_recorded(self, cluster):
        client = cluster.client()

        def script():
            yield from client.write_latest("lat", "v")
            yield from client.read_latest("lat")
            return True

        cluster.run(script())
        assert len(client.write_latencies) == 1
        assert len(client.read_latencies) == 1
        assert 0 < client.write_latencies[0] < 0.1


class TestReplication:
    def test_each_key_on_n_replicas(self, cluster):
        client = cluster.client()

        def script():
            for i in range(20):
                yield from client.write_latest(f"rep-{i}", i)
            return True

        cluster.run(script())
        cluster.settle(0.5)
        for i in range(20):
            encoded = FullKey.of(f"rep-{i}").encoded()
            assert cluster.total_replicas_of(encoded) == 3, f"rep-{i}"

    def test_any_coordinator_sees_data(self, cluster):
        writer = cluster.client("w", pinned="node0")

        def write():
            yield from writer.write_latest("everywhere", "yes")
            return True

        cluster.run(write())
        for name in cluster.node_names[1:]:
            reader = cluster.client(pinned=name)

            def read():
                return (yield from reader.read_latest("everywhere"))

            assert cluster.run(read()) == "yes", name

    def test_concurrent_writers_converge(self, cluster):
        clients = [cluster.client(f"cc-{i}") for i in range(4)]

        def writer(c, value):
            status = yield from c.write_latest("contended", value)
            return status

        cluster.run_all([writer(c, f"v{i}") for i, c in enumerate(clients)])
        cluster.settle(0.5)

        reader = cluster.client()

        def read():
            return (yield from reader.read_latest("contended"))

        final = cluster.run(read())
        assert final in {"v0", "v1", "v2", "v3"}

    def test_outdated_write_rejected(self, cluster):
        client = cluster.client("stale-writer")

        def script():
            first = yield from client.write_latest("ts-key", "fresh")
            # Force a stale timestamp by rewinding the client clock.
            client._last_ts -= 10.0
            old_ts = client._last_ts + 1e-9
            args = {"key": FullKey.of("ts-key").encoded(), "value": "stale",
                    "ts": old_ts, "source": client.name, "mode": "latest"}
            result = yield from client._request("sedna.write", args)
            return first, result["status"]

        first, second = cluster.run(script())
        assert first == WriteOutcome.OK
        assert second == WriteOutcome.OUTDATED


class TestClusterShape:
    def test_balanced_assignment(self, cluster):
        counts = [len(node.cache.ring.vnodes_of(name))
                  for name, node in cluster.nodes.items()]
        assert max(counts) - min(counts) <= 1

    def test_all_nodes_running(self, cluster):
        assert all(node.running for node in cluster.nodes.values())

    def test_real_node_znodes_registered(self, cluster):
        leader = cluster.ensemble.leader()
        children = leader.tree.get_children("/sedna/real_nodes")
        assert set(children) == set(cluster.node_names)

    def test_stats_shape(self, cluster):
        stats = cluster.stats()
        assert len(stats["nodes"]) == len(cluster.node_names)
        assert stats["zk"]["leader"] is not None


class TestEndpointNames:
    def test_a_taken_client_name_raises(self, cluster):
        """A second handle under one name would take the first one's
        replies, and the first one's writes would report failure."""
        first = cluster.client("dup")
        with pytest.raises(ValueError, match="taken"):
            cluster.client("dup")
        assert cluster.run(first.write_latest("dup-k", "v")) == WriteOutcome.OK

    def test_crashing_an_unknown_name_raises(self, cluster):
        """A mistyped node name is an error, not a new endpoint."""
        with pytest.raises(KeyError):
            cluster.failures.crash("nod0")
        assert "nod0" not in cluster.network.endpoints


class TestClientFailover:
    def test_round_robin_client_survives_dead_coordinator(self, cluster):
        """The thin client retries the next coordinator on timeout."""
        client = cluster.client("failover-client")
        cluster.crash_node("node3")
        try:
            def script():
                ok = 0
                for i in range(12):  # round-robin passes the dead node
                    value = yield from client.write_latest(f"fo{i}", i)
                    if value == "ok":
                        ok += 1
                return ok

            assert cluster.run(script()) == 12
        finally:
            cluster.restart_node("node3")
            cluster.settle(1.0)

    def test_smart_client_read_latest_element(self, cluster):
        client = cluster.smart_client("element-reader")

        def script():
            yield from client.connect()
            yield from client.write_latest("elem", "payload")
            element = yield from client.read_latest_element("elem")
            missing = yield from client.read_latest_element("no-such")
            return element, missing

        element, missing = cluster.run(script())
        assert element.value == "payload"
        assert element.source == "element-reader"
        assert missing is None
