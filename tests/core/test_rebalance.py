"""Integration tests for the data-balance manager (§III.A/B)."""

import pytest

import repro.core.rebalance as rebalance_mod
from repro.core.cache import ZkLayout
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.rebalance import Rebalancer, pick_migration_vnode
from repro.zk.server import ZkConfig


def build_skewed(num_vnodes=24, n_nodes=3):
    """A cluster whose mapping is deliberately piled onto node0."""
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3,
                           config=SednaConfig(
                               num_vnodes=num_vnodes,
                               imbalance_push_interval=0.5,
                               lease_base=0.5),
                           zk_config=ZkConfig(session_timeout=1.0))
    cluster.start()

    def skew():
        zk = cluster.ensemble.client("admin")
        yield from zk.connect()
        for v in range(num_vnodes):
            data, stat = yield from zk.get(ZkLayout.vnode(v))
            # Pile node1's share onto node0; node2 keeps its third.
            if data.decode() == "node1":
                yield from zk.set(ZkLayout.vnode(v), b"node0",
                                  version=stat["version"])
                yield from zk.create(f"{ZkLayout.CHANGELOG}/e-",
                                     str(v).encode(), sequential=True)
        return True

    cluster.run(skew())
    cluster.settle(3.0)  # caches pick up the skew; imbalance rows pushed
    return cluster


def authoritative_counts(cluster):
    leader = cluster.ensemble.leader()
    counts = {name: 0 for name, node in cluster.nodes.items()
              if node.running}
    for v in range(cluster.config.num_vnodes):
        data, _ = leader.tree.get(ZkLayout.vnode(v))
        owner = data.decode()
        counts[owner] = counts.get(owner, 0) + 1
    return counts


class TestRebalancer:
    def test_reduces_spread(self):
        cluster = build_skewed()
        before = authoritative_counts(cluster)
        assert max(before.values()) - min(before.values()) > 4, \
            "test setup must be skewed"
        rebalancer = Rebalancer(cluster.nodes["node1"], interval=1.0,
                                threshold=1, max_moves_per_pass=4)
        rebalancer.start()
        cluster.settle(30.0)
        rebalancer.stop()
        after = authoritative_counts(cluster)
        spread = max(after.values()) - min(after.values())
        assert spread <= 3, f"spread still {spread}: {after}"
        assert rebalancer.moves > 0

    def test_moves_are_changelogged(self):
        cluster = build_skewed()
        leader = cluster.ensemble.leader()
        entries_before = len(leader.tree.get_children(ZkLayout.CHANGELOG))
        rebalancer = Rebalancer(cluster.nodes["node2"], interval=1.0,
                                threshold=1)
        rebalancer.start()
        cluster.settle(15.0)
        rebalancer.stop()
        entries_after = len(leader.tree.get_children(ZkLayout.CHANGELOG))
        assert entries_after - entries_before >= rebalancer.moves

    def test_data_still_readable_after_rebalance(self):
        cluster = build_skewed()
        client = cluster.client()

        def seed():
            for i in range(30):
                yield from client.write_latest(f"rb{i}", i)
            return True

        cluster.run(seed())
        rebalancer = Rebalancer(cluster.nodes["node1"], interval=1.0,
                                threshold=1)
        rebalancer.start()
        cluster.settle(25.0)
        rebalancer.stop()

        def read_back():
            values = []
            for i in range(30):
                values.append((yield from client.read_latest(f"rb{i}")))
            return values

        assert cluster.run(read_back()) == list(range(30))

    def test_balanced_cluster_untouched(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(
                                   num_vnodes=24,
                                   imbalance_push_interval=0.5))
        cluster.start()
        cluster.settle(2.0)
        rebalancer = Rebalancer(cluster.nodes["node0"], interval=1.0,
                                threshold=1)
        rebalancer.start()
        cluster.settle(10.0)
        rebalancer.stop()
        assert rebalancer.moves == 0
        assert rebalancer.passes > 0

    def test_dead_node_rows_pruned(self):
        cluster = SednaCluster(n_nodes=3, zk_size=3,
                               config=SednaConfig(
                                   num_vnodes=24,
                                   imbalance_push_interval=0.5),
                               zk_config=ZkConfig(session_timeout=1.0))
        cluster.start()
        cluster.settle(2.0)  # imbalance rows exist for everyone
        cluster.crash_node("node2")
        cluster.settle(4.0)  # ZK session expires
        rebalancer = Rebalancer(cluster.nodes["node0"], interval=1.0,
                                threshold=1)
        rebalancer.start()
        cluster.settle(5.0)
        rebalancer.stop()
        assert rebalancer.rows_dropped >= 1
        leader = cluster.ensemble.leader()
        rows = leader.tree.get_children(ZkLayout.IMBALANCE)
        assert "node2" not in rows

    def test_concurrent_rebalancers_are_safe(self):
        cluster = build_skewed()
        r1 = Rebalancer(cluster.nodes["node1"], interval=1.0, threshold=1)
        r2 = Rebalancer(cluster.nodes["node2"], interval=1.1, threshold=1)
        r1.start()
        r2.start()
        cluster.settle(30.0)
        r1.stop()
        r2.stop()
        after = authoritative_counts(cluster)
        # Version-checked moves: no vnode lost, no duplicate ownership.
        assert sum(after.values()) == cluster.config.num_vnodes
        assert max(after.values()) - min(after.values()) <= 3


class TestPickVnode:
    """Regression for the ``owned[0]`` bug: the donor vnode is chosen
    by per-vnode activity with a deterministic tiebreak."""

    def test_hottest_vnode_wins_not_owned0(self):
        stats = {4: {"reads": 2, "writes": 0},
                 7: {"reads": 50, "writes": 20},
                 9: {"reads": 5, "writes": 1}}
        assert pick_migration_vnode([4, 7, 9], stats) == 7

    def test_tie_breaks_to_lowest_vnode_id(self):
        assert pick_migration_vnode([9, 5, 2], {}) == 2
        same = {5: {"reads": 3}, 9: {"reads": 3}}
        assert pick_migration_vnode([9, 5], same) == 5

    def test_order_of_owned_list_is_irrelevant(self):
        stats = {1: {"writes": 9}, 2: {"writes": 1}, 3: {"writes": 5}}
        for owned in ([1, 2, 3], [3, 2, 1], [2, 3, 1]):
            assert pick_migration_vnode(owned, stats) == 1

    def test_limit_excludes_overheated_vnodes(self):
        stats = {1: {"writes": 1000}, 2: {"reads": 3}}
        assert pick_migration_vnode([1, 2], stats, limit=50.0) == 2

    def test_no_candidate_under_limit(self):
        stats = {1: {"writes": 1000}}
        assert pick_migration_vnode([1], stats, limit=50.0) is None
        assert pick_migration_vnode([], {}) is None


class TestLiveMigration:
    def seed_keys(self, cluster, n=40):
        client = cluster.client()

        def seed():
            for i in range(n):
                yield from client.write_latest(f"mig{i}", i)
            return True

        cluster.run(seed())
        return client

    def test_chunked_migration_ships_all_keys(self):
        cluster = build_skewed()
        client = self.seed_keys(cluster)
        rebalancer = Rebalancer(cluster.nodes["node1"], interval=1.0,
                                threshold=1, chunk_bytes=64)
        rebalancer.start()
        cluster.settle(30.0)
        rebalancer.stop()
        assert rebalancer.moves > 0
        # Tiny chunk budget forces multi-chunk streams.
        assert rebalancer.chunks > rebalancer.moves
        assert rebalancer.bytes_moved > 0
        ledger = rebalancer.ledger()
        assert all(m["state"] in ("done", "aborted") or m["attempts"] >= 0
                   for m in ledger)

        def read_back():
            values = []
            for i in range(40):
                values.append((yield from client.read_latest(f"mig{i}")))
            return values

        assert cluster.run(read_back()) == list(range(40))

    def test_transfer_failure_lands_in_ledger_and_retries(self, monkeypatch):
        """Satellite bugfix: a failed transfer is recorded and retried
        next pass instead of silently swallowed — the keys arrive."""
        monkeypatch.setattr(rebalance_mod, "MAX_ATTEMPTS", 20)
        cluster = build_skewed()
        client = self.seed_keys(cluster)
        # Cut the receiver-to-be (node1 owns nothing, so it is the
        # coldest node) off the data plane; its ZK session endpoint
        # stays up so no recovery path interferes.
        others = [n for n in cluster.network.endpoints if n != "node1"]
        part = cluster.failures.partition(["node1"], others)
        rebalancer = Rebalancer(cluster.nodes["node2"], interval=1.0,
                                threshold=1)
        rebalancer.start()
        cluster.settle(4.0)
        assert rebalancer.transfer_failures > 0, \
            "partitioned receiver must fail at least one transfer step"
        assert rebalancer.moves == 0
        part.heal()
        cluster.settle(25.0)
        rebalancer.stop()
        assert rebalancer.moves > 0
        retried = [m for m in rebalancer.ledger()
                   if m["state"] == "done" and m["attempts"] > 0]
        assert retried, "a previously failed migration must complete"
        # The receiver really holds the migrated vnodes' rows.
        node1 = cluster.nodes["node1"]
        owned = cluster.nodes["node2"].cache.ring.vnodes_of("node1")
        moved_here = [m for m in rebalancer.ledger()
                      if m["state"] == "done" and m["receiver"] == "node1"
                      and m["vnode"] in owned]
        assert moved_here
        held = 0
        for m in moved_here:
            for key in node1.store.keys_of(m["vnode"]):
                if node1.store.read_all(key):
                    held += 1
        assert held > 0, "migrated keys must be present on the receiver"

        def read_back():
            values = []
            for i in range(40):
                values.append((yield from client.read_latest(f"mig{i}")))
            return values

        assert cluster.run(read_back()) == list(range(40))

    def test_forwarding_window_covers_concurrent_writes(self):
        """Writes racing a migration are double-applied to the receiver
        so no acked write is lost across the cutover."""
        cluster = build_skewed()
        n_keys = 120
        client = self.seed_keys(cluster, n=n_keys)
        # A tiny per-pass byte budget parks every copy mid-stream, so
        # forwarding windows stay open across whole pass intervals
        # while the churn below rewrites the migrating keys.
        rebalancer = Rebalancer(cluster.nodes["node1"], interval=0.5,
                                threshold=1, chunk_bytes=128,
                                pass_byte_budget=256)
        rebalancer.start()

        def churn():
            # Rewrite every key repeatedly while migrations stream.
            for round_no in range(6):
                for i in range(n_keys):
                    yield from client.write_latest(f"mig{i}",
                                                   round_no * 1000 + i)
            return True

        cluster.run(churn())
        cluster.settle(30.0)
        rebalancer.stop()
        assert rebalancer.moves > 0
        forwards = sum(node.migration_forwards
                       for node in cluster.nodes.values())
        assert forwards > 0, "no write hit an open forwarding window"

        def read_back():
            values = []
            for i in range(n_keys):
                values.append((yield from client.read_latest(f"mig{i}")))
            return values

        assert cluster.run(read_back()) == [5000 + i
                                            for i in range(n_keys)]
