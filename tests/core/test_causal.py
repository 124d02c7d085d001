"""End-to-end tests of the causal (DVV) replication mode.

Concurrent blind writes must both survive as siblings; a write carrying
the context of a read (or of a write ack, which hands back the covered
siblings) supersedes exactly what that context covers — docs §16.
"""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.storage.versioned import WriteOutcome


def small_cluster(n_nodes=4, **cfg_kwargs):
    cfg_kwargs.setdefault("num_vnodes", 32)
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3,
                           config=SednaConfig(**cfg_kwargs))
    cluster.start()
    return cluster


@pytest.fixture(scope="module")
def cluster():
    return small_cluster()


class TestCausalWriteRead:
    def test_blind_concurrent_writes_both_survive(self, cluster):
        c1 = cluster.client("dvv-a")
        c2 = cluster.client("dvv-b")

        def script():
            a1 = yield from c1.write_causal("conc", "from-a")
            a2 = yield from c2.write_causal("conc", "from-b")
            read = yield from c1.read_causal("conc")
            return a1, a2, read

        a1, a2, read = cluster.run(script())
        assert a1.ok and a2.ok
        assert a1.dot is not None and a2.dot is not None
        assert sorted(read.values) == ["from-a", "from-b"]

    def test_context_write_reconciles_siblings(self, cluster):
        c1 = cluster.client("dvv-c")
        c2 = cluster.client("dvv-d")

        def script():
            yield from c1.write_causal("recon", "left")
            yield from c2.write_causal("recon", "right")
            read = yield from c1.read_causal("recon")
            ack = yield from c1.write_causal("recon", "merged",
                                             context=read.context)
            after = yield from c1.read_causal("recon")
            return read, ack, after

        read, ack, after = cluster.run(script())
        assert len(read.siblings) == 2
        assert ack.ok
        assert after.values == ["merged"]

    def test_write_ack_hands_back_covered_siblings(self, cluster):
        """The ack context may cover siblings the writer never read —
        so the ack must carry their values (informed supersession)."""
        c1 = cluster.client("dvv-e")
        c2 = cluster.client("dvv-f")

        def script():
            yield from c1.write_causal("handed", "unseen")
            ack = yield from c2.write_causal("handed", "mine")
            return ack

        ack = cluster.run(script())
        assert ack.ok
        assert "unseen" in [v for _s, _t, v in ack.siblings]

    def test_stale_context_keeps_newer_sibling(self, cluster):
        c1 = cluster.client("dvv-g")
        c2 = cluster.client("dvv-h")

        def script():
            yield from c1.write_causal("stale", "v1")
            read = yield from c1.read_causal("stale")   # covers v1 only
            yield from c2.write_causal("stale", "v2")   # concurrent
            yield from c1.write_causal("stale", "v3", context=read.context)
            final = yield from c2.read_causal("stale")
            return final

        final = cluster.run(script())
        assert sorted(final.values) == ["v2", "v3"]

    def test_missing_key_reads_empty(self, cluster):
        client = cluster.client("dvv-i")

        def script():
            return (yield from client.read_causal("causal-never-written"))

        result = cluster.run(script())
        assert result.found is False
        assert result.siblings == () and result.context == ()

    def test_smart_client_causal_roundtrip(self, cluster):
        client = cluster.smart_client("dvv-smart")

        def script():
            yield from client.connect()
            ack = yield from client.write_causal("smart", "v")
            read = yield from client.read_causal("smart")
            ack2 = yield from client.write_causal("smart", "w",
                                                  context=read.context)
            after = yield from client.read_causal("smart")
            return ack, read, ack2, after

        ack, read, ack2, after = cluster.run(script())
        assert ack.status == WriteOutcome.OK and ack2.ok
        assert read.values == ["v"]
        assert after.values == ["w"]


class TestCausalReplication:
    def test_siblings_replicated_and_repaired(self, cluster):
        """After anti-entropy-free quiesce, every replica of the key
        holds the merged row (read repair pushed it)."""
        c1 = cluster.client("dvv-j")
        c2 = cluster.client("dvv-k")

        def script():
            yield from c1.write_causal("spread", "x")
            yield from c2.write_causal("spread", "y")
            read = yield from c1.read_causal("spread")
            return read

        read = cluster.run(script())
        cluster.settle(0.5)
        assert len(read.siblings) == 2
        from repro.core.types import FullKey
        encoded = FullKey.of("spread").encoded()
        shapes = set()
        holders = 0
        for node in cluster.nodes.values():
            row = node.store.dvv_rows.get(encoded)
            if row is not None:
                holders += 1
                shapes.add(row.shape())
        assert holders == 3          # replication factor
        assert len(shapes) == 1      # all converged on the merged row

    def test_metrics_track_siblings(self, cluster):
        """dvv.siblings histogram observes on every causal update."""
        from repro.obs import Observability
        obs = Observability()
        local = SednaCluster(n_nodes=3, zk_size=1,
                             config=SednaConfig(num_vnodes=16), obs=obs)
        local.start()
        a = local.client("m-a")
        b = local.client("m-b")

        def script():
            yield from a.write_causal("mk", "1")
            yield from b.write_causal("mk", "2")
            return True

        local.run(script())
        series = obs.snapshot()["series"]
        sib = {name: m for name, m in series.items()
               if name.endswith("dvv.siblings")}
        assert sib, f"no dvv.siblings series in {sorted(series)[:10]}"
        # Two causal updates observed somewhere in the cluster.
        assert sum(m.get("count", 0) for m in sib.values()) >= 2
        assert any(name.endswith("dvv.context_misses")
                   for name in series)


class TestRestart:
    def test_restarted_node_keeps_the_configured_sibling_cap(self):
        """restart() rebuilds the store the way __init__ does: a cap
        configured away from the default survives the restart, and
        three blind writers through the restarted node keep two
        siblings there, not three."""
        cluster = small_cluster(n_nodes=3, dvv_sibling_cap=2)
        node = cluster.nodes["node1"]
        old_store = node.store
        cluster.crash_node("node1")
        cluster.settle(5.0)
        cluster.restart_node("node1")
        assert node.store is not old_store
        assert node.store.dvv_sibling_cap == 2
        clients = [cluster.client(f"cap-{i}", pinned="node1")
                   for i in range(3)]

        def script():
            for i, client in enumerate(clients):
                yield from client.write_causal("capped", f"v{i}")

        cluster.run(script())
        from repro.core.types import FullKey
        row = node.store.dvv_rows[FullKey.of("capped").encoded()]
        assert len(row.siblings) == 2
