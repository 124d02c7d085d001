"""Tests for ketama consistent hashing and its client integration."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.ketama import KetamaRing
from repro.baselines.memcached import MemcachedCluster
from repro.net.latency import NoLatency
from repro.net.simulator import Simulator
from repro.net.transport import Network


def keys(n, prefix=b"k"):
    return [prefix + str(i).encode() for i in range(n)]


class TestKetamaRing:
    def test_deterministic(self):
        ring = KetamaRing(["a", "b", "c"])
        assert all(ring.node_for(k) == ring.node_for(k) for k in keys(100))

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            KetamaRing([]).node_for(b"k")

    def test_distribution_roughly_even(self):
        ring = KetamaRing(["a", "b", "c", "d"], points_per_server=160)
        counts = Counter(ring.node_for(k) for k in keys(8000))
        assert set(counts) == {"a", "b", "c", "d"}
        expected = 8000 / 4
        for server, count in counts.items():
            assert 0.5 * expected < count < 1.6 * expected, counts

    def test_offsets_give_distinct_servers(self):
        ring = KetamaRing(["a", "b", "c"])
        for key in keys(50):
            owners = [ring.node_for(key, offset=i) for i in range(3)]
            assert len(set(owners)) == 3

    def test_add_server_moves_bounded_fraction(self):
        ring = KetamaRing(["a", "b", "c"])
        sample = keys(3000)
        before = {k: ring.node_for(k) for k in sample}
        ring.add_server("d")
        moved = sum(1 for k in sample if ring.node_for(k) != before[k])
        # Ideal move fraction = 1/4; allow generous slack.
        assert moved < len(sample) * 0.45
        assert moved > 0

    def test_duplicate_add_is_noop(self):
        ring = KetamaRing(["a", "b"])
        points = len(ring._points)
        ring.add_server("a")
        assert len(ring._points) == points

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=1, max_size=16), st.integers(0, 2))
    def test_node_for_total(self, key, offset):
        ring = KetamaRing(["a", "b", "c"])
        assert ring.node_for(key, offset) in {"a", "b", "c"}


class TestKetamaClient:
    def test_roundtrip_with_ketama_sharding(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        cluster = MemcachedCluster(sim, net, size=4)
        from repro.baselines.memcached import MemcachedClusterClient
        client = MemcachedClusterClient(sim, net, "kc", cluster.names,
                                        hashing="ketama")

        def script():
            for k in keys(50):
                yield from client.set(k, b"v", copies=3)
            hits = 0
            for k in keys(50):
                if (yield from client.get(k)) == b"v":
                    hits += 1
            return hits

        proc = sim.process(script())
        assert sim.run(until=proc) == 50
        assert sum(len(server.store) for server in cluster.servers) == 150

    def test_unknown_strategy_rejected(self):
        sim = Simulator()
        net = Network(sim, latency=NoLatency())
        from repro.baselines.memcached import MemcachedClusterClient
        with pytest.raises(ValueError):
            MemcachedClusterClient(sim, net, "x", ["a"], hashing="rendezvous")
