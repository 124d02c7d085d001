"""Unit + integration tests for the persistence strategies (§III.C)."""

import pytest

import repro.persistence.strategy as strategy_mod
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.net.rpc import RpcNode
from repro.net.simulator import Simulator
from repro.persistence.disk import SimDisk
from repro.persistence.strategy import (NoPersistence, SnapshotPersistence,
                                        WalPersistence, make_strategy)
from repro.storage.versioned import ValueElement, WriteOutcome
from repro.zk.server import ZkConfig


class TestSimDisk:
    def test_append_and_read(self):
        disk = SimDisk()
        disk.append("log", ("k", 1))
        disk.append("log", ("k", 2))
        assert disk.read_log("log") == [("k", 1), ("k", 2)]

    def test_read_missing_log(self):
        assert SimDisk().read_log("nope") == []

    def test_truncate(self):
        disk = SimDisk()
        disk.append("log", 1)
        disk.truncate_log("log")
        assert disk.read_log("log") == []

    def test_blob_roundtrip(self):
        disk = SimDisk()
        disk.write_blob("snap", {"a": 1})
        assert disk.read_blob("snap") == {"a": 1}
        assert disk.read_blob("missing", "d") == "d"


class TestStrategies:
    def test_factory(self):
        disk = SimDisk()
        assert isinstance(make_strategy("none", disk, "n", 1.0), NoPersistence)
        assert isinstance(make_strategy("snapshot", disk, "n", 1.0),
                          SnapshotPersistence)
        assert isinstance(make_strategy("wal", disk, "n", 1.0), WalPersistence)
        with pytest.raises(ValueError):
            make_strategy("raid", disk, "n", 1.0)

    def test_none_recovers_nothing(self):
        strategy = NoPersistence()
        strategy.on_write("k", ValueElement("s", 1.0, "v"))
        assert strategy.recover() == {}
        assert strategy.write_delay() == 0.0

    def test_wal_recovers_everything(self):
        disk = SimDisk()
        strategy = WalPersistence(disk, "n")
        strategy.on_write("k1", ValueElement("s", 1.0, "v1"))
        strategy.on_write("k1", ValueElement("s", 2.0, "v2"))
        strategy.on_write("k2", ValueElement("t", 1.0, "w"))
        recovered = WalPersistence(disk, "n").recover()
        assert set(recovered) == {"k1", "k2"}
        (el,) = [e for e in recovered["k1"] if e.source == "s"]
        assert el.value == "v2", "newest per source wins on replay"

    def test_wal_has_write_delay(self):
        assert WalPersistence(SimDisk(), "n").write_delay() > 0.0

    def test_wal_compaction_preserves_data(self, monkeypatch):
        monkeypatch.setattr(strategy_mod, "COMPACT_EVERY", 5)
        disk = SimDisk()
        store_rows = {}
        strategy = WalPersistence(disk, "n")
        strategy.start(None, lambda: store_rows)
        for i in range(12):
            el = ValueElement("s", float(i), f"v{i}")
            store_rows[f"k{i}"] = [el]
            strategy.on_write(f"k{i}", el)
        assert len(disk.read_log("n.wal")) < 12, "log must have compacted"
        recovered = WalPersistence(disk, "n").recover()
        assert set(recovered) == {f"k{i}" for i in range(12)}

    def test_snapshot_periodic_flush(self):
        sim = Simulator()
        disk = SimDisk()
        rows = {"k": [ValueElement("s", 1.0, "v")]}
        strategy = SnapshotPersistence(disk, "n", interval=1.0)
        strategy.start(sim, lambda: rows)
        sim.run(until=2.5)
        strategy.stop()
        recovered = SnapshotPersistence(disk, "n", interval=1.0).recover()
        assert "k" in recovered

    def test_snapshot_loses_post_flush_writes(self):
        sim = Simulator()
        disk = SimDisk()
        rows = {"k": [ValueElement("s", 1.0, "v")]}
        strategy = SnapshotPersistence(disk, "n", interval=1.0)
        strategy.start(sim, lambda: rows)
        sim.run(until=1.5)  # one flush happened
        rows["late"] = [ValueElement("s", 2.0, "late")]
        strategy.stop()
        recovered = SnapshotPersistence(disk, "n", interval=1.0).recover()
        assert "k" in recovered and "late" not in recovered


class TestClusterPersistence:
    def _roundtrip(self, persistence):
        cluster = SednaCluster(
            n_nodes=3, zk_size=3,
            config=SednaConfig(num_vnodes=16, persistence=persistence,
                               snapshot_interval=1.0),
            zk_config=ZkConfig(session_timeout=1.0))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(10):
                yield from client.write_latest(f"p{i}", f"v{i}")
            return True

        cluster.run(seed())
        cluster.settle(3.0)  # allow at least one snapshot interval
        victim = cluster.nodes["node1"]
        keys_before = len(victim.store)
        cluster.crash_node("node1")
        cluster.settle(3.0)
        cluster.restart_node("node1")
        cluster.settle(1.0)
        return keys_before, len(victim.store), cluster

    def test_wal_restores_local_data(self):
        before, after, _cluster = self._roundtrip("wal")
        assert before > 0
        assert after >= before

    def test_snapshot_restores_local_data(self):
        before, after, _cluster = self._roundtrip("snapshot")
        assert before > 0
        assert after >= before

    def test_none_restores_nothing_locally(self):
        cluster = SednaCluster(
            n_nodes=3, zk_size=3,
            config=SednaConfig(num_vnodes=16, persistence="none"),
            zk_config=ZkConfig(session_timeout=1.0))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(10):
                yield from client.write_latest(f"p{i}", f"v{i}")
            return True

        cluster.run(seed())
        victim = cluster.nodes["node1"]
        assert len(victim.store) > 0
        cluster.crash_node("node1")
        cluster.settle(3.0)
        # Restart with recovery from disk only (no reads yet).
        proc = cluster.sim.process(victim.restart())
        cluster.sim.run(until=proc)
        assert len(victim.store) == 0, "no persistence: memory starts empty"

    def test_whole_cluster_power_loss_recoverable_with_wal(self):
        """§III.C: 'like the power shortage of the cluster, we can still
        recover the data from lost by the periodic data flushing'."""
        cluster = SednaCluster(
            n_nodes=3, zk_size=3,
            config=SednaConfig(num_vnodes=16, persistence="wal"),
            zk_config=ZkConfig(session_timeout=1.0))
        cluster.start()
        client = cluster.client()

        def seed():
            for i in range(10):
                yield from client.write_latest(f"pl{i}", i)
            return True

        cluster.run(seed())
        cluster.settle(1.0)
        for name in list(cluster.node_names):
            cluster.crash_node(name)
        cluster.settle(5.0)
        for name in list(cluster.node_names):
            cluster.restart_node(name)
        cluster.settle(2.0)

        reader = cluster.client("post-outage")

        def read_back():
            values = []
            for i in range(10):
                values.append((yield from reader.read_latest(f"pl{i}")))
            return values

        assert cluster.run(read_back()) == list(range(10))


class TestBatchedWritesLogEachEntry:
    """A key sent twice in one ``replica.mwrite`` is logged by each
    entry's own outcome, not by the key's last one."""

    KEY = "k"

    def _call(self, entries):
        cluster = SednaCluster(
            n_nodes=3, zk_size=3,
            config=SednaConfig(num_vnodes=8, persistence="wal"))
        cluster.start()
        vnode, replicas = cluster.nodes["node0"].cache.replicas_for_key(
            self.KEY)
        node = cluster.nodes[replicas[0]]
        probe = RpcNode(cluster.network, "probe")
        reply = cluster.run(probe.call(
            node.name, "replica.mwrite",
            {"vnode": vnode, "entries": [
                {"key": self.KEY, "value": value, "ts": ts, "source": "c",
                 "mode": "latest"} for ts, value in entries]},
            timeout=1.0))
        return node, reply

    def test_newer_then_older_logs_the_newer(self):
        node, reply = self._call([(5.0, "new"), (3.0, "old")])
        assert reply == {"statuses": {self.KEY: WriteOutcome.OUTDATED}}
        assert node.store.read_latest(self.KEY).value == "new"
        assert node.disk.read_log(f"{node.name}.wal") == [
            (self.KEY, ValueElement("c", 5.0, "new"))]
        assert node.persistence.recover()[self.KEY] == [
            ValueElement("c", 5.0, "new")]

    def test_older_then_newer_logs_both(self):
        node, reply = self._call([(3.0, "old"), (5.0, "new")])
        assert reply == {"statuses": {self.KEY: WriteOutcome.OK}}
        assert node.disk.read_log(f"{node.name}.wal") == [
            (self.KEY, ValueElement("c", 3.0, "old")),
            (self.KEY, ValueElement("c", 5.0, "new"))]

    def test_outdated_entry_is_not_logged(self):
        node, reply = self._call([(5.0, "new"), (4.0, "stale"),
                                  (7.0, "newest")])
        assert reply == {"statuses": {self.KEY: WriteOutcome.OK}}
        assert [el.value for _key, el in
                node.disk.read_log(f"{node.name}.wal")] == ["new", "newest"]
