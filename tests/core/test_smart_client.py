"""Tests for what only the zero-hop SmartSednaClient has (§VII): its
own replica fan-out, mapping cache and ZooKeeper session.  What every
verb returns is covered for both routes by ``test_client_routes.py``."""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.types import FullKey


@pytest.fixture(scope="module")
def cluster():
    c = SednaCluster(n_nodes=4, zk_size=3,
                     config=SednaConfig(num_vnodes=32))
    c.start()
    return c


class TestSmartClient:
    def test_writes_reach_three_replicas(self, cluster):
        client = cluster.smart_client()

        def script():
            yield from client.connect()
            for i in range(10):
                yield from client.write_latest(f"sr{i}", i)
            return True

        cluster.run(script())
        cluster.settle(0.5)
        for i in range(10):
            encoded = FullKey.of(f"sr{i}").encoded()
            assert cluster.total_replicas_of(encoded) == 3

    def test_interoperates_with_proxy_client(self, cluster):
        smart = cluster.smart_client("interop-smart")
        proxy = cluster.client("interop-proxy")

        def script():
            yield from smart.connect()
            yield from smart.write_latest("cross", "from-smart")
            via_proxy = yield from proxy.read_latest("cross")
            yield from proxy.write_latest("cross", "from-proxy")
            via_smart = yield from smart.read_latest("cross")
            return via_proxy, via_smart

        assert cluster.run(script()) == ("from-smart", "from-proxy")

    def test_smart_is_faster_than_proxy(self, cluster):
        """The zero-hop path must beat the extra coordinator hop."""
        smart = cluster.smart_client("race-smart")
        proxy = cluster.client("race-proxy")

        def script():
            yield from smart.connect()
            for i in range(30):
                yield from smart.write_latest(f"fast{i}", i)
            for i in range(30):
                yield from proxy.write_latest(f"slow{i}", i)
            return True

        cluster.run(script())
        smart_mean = sum(smart.write_latencies) / len(smart.write_latencies)
        proxy_mean = sum(proxy.write_latencies) / len(proxy.write_latencies)
        assert smart_mean < proxy_mean

    def test_write_all_and_read_all(self, cluster):
        c1 = cluster.smart_client("swa1")
        c2 = cluster.smart_client("swa2")

        def script():
            yield from c1.connect()
            yield from c2.connect()
            yield from c1.write_all("multi", "a")
            yield from c2.write_all("multi", "b")
            return (yield from c1.read_all("multi"))

        elements = cluster.run(script())
        assert {e.source for e in elements} == {"swa1", "swa2"}

    def test_close_releases_session(self, cluster):
        client = cluster.smart_client("closing")

        def script():
            yield from client.connect()
            yield from client.close()
            return client.zk.session_id

        assert cluster.run(script()) is None
