"""Tests for the memcached baseline cluster and sharding client."""

import pytest

from repro.baselines.memcached import MemcachedCluster
from repro.storage.memstore import ITEM_OVERHEAD
from repro.net.latency import LanGigabit
from repro.net.simulator import Simulator
from repro.net.transport import Network


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, latency=LanGigabit(seed=3))
    cluster = MemcachedCluster(sim, net, size=4)
    return sim, net, cluster


def run(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


class TestMemcachedCluster:
    def test_set_get_roundtrip(self, world):
        sim, _net, cluster = world
        client = cluster.client()

        def script():
            yield from client.set(b"k", b"v")
            return (yield from client.get(b"k"))

        assert run(sim, script()) == b"v"

    def test_get_missing(self, world):
        sim, _net, cluster = world
        client = cluster.client()

        def script():
            return (yield from client.get(b"nope"))

        assert run(sim, script()) is None

    def test_sharding_spreads_keys(self, world):
        sim, _net, cluster = world
        client = cluster.client()

        def script():
            for i in range(100):
                yield from client.set(f"k{i}".encode(), b"v")
            return True

        run(sim, script())
        sizes = [len(s.store) for s in cluster.servers]
        assert sum(sizes) == 100
        assert all(size > 0 for size in sizes), "all shards must be used"

    def test_three_copies_on_three_servers(self, world):
        sim, _net, cluster = world
        client = cluster.client()

        def script():
            yield from client.set(b"replicated", b"v", copies=3)
            return True

        run(sim, script())
        holders = sum(1 for s in cluster.servers
                      if s.store.get(b"replicated") is not None)
        assert holders == 3
        assert sum(len(s.store) for s in cluster.servers) == 3

    def test_sequential_copies_slower_than_single(self, world):
        sim, _net, cluster = world
        c1 = cluster.client("single")
        c3 = cluster.client("triple")

        def script():
            for i in range(50):
                yield from c1.set(f"a{i}".encode(), b"v", copies=1)
            for i in range(50):
                yield from c3.set(f"b{i}".encode(), b"v", copies=3)
            return True

        run(sim, script())
        t1 = sum(c1.write_latencies)
        t3 = sum(c3.write_latencies)
        assert t3 > 2.0 * t1, (
            "sequential 3-copy writes must cost ~3x a single write "
            f"(got {t3:.4f}s vs {t1:.4f}s)")

    def test_get_three_copies(self, world):
        sim, _net, cluster = world
        client = cluster.client()

        def script():
            yield from client.set(b"k", b"v", copies=3)
            return (yield from client.get(b"k", copies=3))

        assert run(sim, script()) == b"v"

    def test_crashed_server_fails_its_shard_only(self, world):
        sim, _net, cluster = world
        client = cluster.client()

        def seed():
            for i in range(40):
                yield from client.set(f"k{i}".encode(), b"v")
            return True

        run(sim, seed())
        cluster.servers[0].rpc.endpoint.crash()

        def read_all():
            hits = 0
            for i in range(40):
                value = yield from client.get(f"k{i}".encode())
                if value == b"v":
                    hits += 1
            return hits

        hits = run(sim, read_all())
        lost = 40 - hits
        assert 0 < lost < 40, "only the crashed shard's keys disappear"
        assert client.failures == lost


class TestMemoryLimit:
    """The server's byte budget, seen only through the sharding client."""

    def test_lru_evicts_oldest_and_a_read_keeps_a_key(self):
        sim = Simulator()
        net = Network(sim, latency=LanGigabit(seed=3))
        cluster = MemcachedCluster(sim, net, size=1, memory_limit=1 << 20)
        client = cluster.client()
        store = cluster.servers[0].store
        value = b"x" * 900
        # One 1 MB page: the budget holds one page of this item's class.
        capacity = store.slabs.class_for(
            len(b"k0000") + len(value) + ITEM_OVERHEAD).chunks_per_page
        keys = [f"k{i:04d}".encode() for i in range(capacity)]
        fresh = [f"n{i:04d}".encode() for i in range(3)]

        def script():
            for key in keys:
                assert (yield from client.set(key, value))
            assert (yield from client.get(keys[0])) == value
            for key in fresh:
                assert (yield from client.set(key, value))
            found = {}
            for key in keys + fresh:
                found[key] = yield from client.get(key)
            return found

        found = run(sim, script())
        assert found[keys[0]] == value, "the read key stays resident"
        assert [found[k] for k in keys[1:4]] == [None, None, None], (
            "the three least recently used keys are evicted")
        assert all(found[k] == value for k in keys[4:] + fresh)
        assert store.evictions == 3
        assert client.failures == 0
