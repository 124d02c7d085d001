"""Integration tests: the obs bundle wired through a live cluster.

Covers the acceptance properties: deterministic snapshots across
same-seed runs, and the per-vnode frequencies in a snapshot being the
very numbers the imbalance pusher publishes to ZooKeeper.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

from repro.chaos import ChaosRunner
from repro.core.cache import ZkLayout
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.hashring import ImbalanceTable
from repro.obs import Observability
from repro.obs import __main__ as obs_cli
from repro.obs.metrics import DISABLED


def _workload(client, n=12):
    for i in range(n):
        yield from client.write_latest(f"wk-{i}", f"v{i}")
    for i in range(n):
        yield from client.read_latest(f"wk-{i}")
    return True


def _build(seed=7, obs=None, **cfg):
    cluster = SednaCluster(n_nodes=4, zk_size=3,
                           config=SednaConfig(num_vnodes=32, **cfg),
                           seed=seed, obs=obs)
    cluster.start()
    return cluster


class TestDeterminism:
    def _snapshot(self):
        obs = Observability(metrics=True, tracing=True)
        cluster = _build(obs=obs)
        cluster.run(_workload(cluster.client("w")))
        cluster.settle(1.0)
        return obs.snapshot()

    def test_same_seed_same_snapshot(self):
        a, b = self._snapshot(), self._snapshot()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["series"] and a["tracing"]["spans"] > 0

    def test_verify_cli_replays_the_seed_plain(self, monkeypatch, capsys):
        """``python -m repro.obs --verify``: observed digest == plain
        digest, and it fails when the two runs differ."""
        argv = ["--seed", "0", "--duration", "2", "--verify"]
        assert obs_cli.main(argv) == 0
        assert "observed == plain" in capsys.readouterr().out

        def moved(spec, obs, **observers):
            return ChaosRunner(spec if obs else replace(spec, seed=1),
                               obs=obs, **observers)

        monkeypatch.setattr(obs_cli, "ChaosRunner", moved)
        assert obs_cli.main(argv) == 1
        assert "observing moved the run" in capsys.readouterr().out


class TestImbalanceAccounting:
    def test_snapshot_row_equals_zk_published_row(self):
        """The frequencies an operator reads in a snapshot are
        definitionally the ones the rebalancer sees in ZooKeeper."""
        obs = Observability(metrics=True)
        cluster = _build(obs=obs)
        cluster.run(_workload(cluster.client("w")))
        # Let every node push its imbalance row, then read the table
        # back through a probe session with no further KV traffic.
        cluster.settle(cluster.config.imbalance_push_interval + 1.0)
        published = {}

        def probe():
            zk = cluster.ensemble.client("probe")
            yield from zk.connect()
            for name in cluster.node_names:
                data, _ = yield from zk.get(ZkLayout.imbalance(name))
                published[name] = ast.literal_eval(data.decode())
            yield from zk.close()
            return True

        cluster.run(probe())
        total_reads = total_writes = 0
        for name, node in cluster.nodes.items():
            expected = node.vstats.row()
            expected["vnodes"] = len(node.cache.ring.vnodes_of(name))
            assert published[name] == expected, name
            # ...and the same statuses aggregate through the
            # ImbalanceTable helper the join/rebalance paths use.
            assert ImbalanceTable.row_from_statuses(
                node.vnode_status)["reads"] == expected["reads"]
            total_reads += expected["reads"]
            total_writes += expected["writes"]
        # Quorum fan-out: every op touches `replicas` vnode statuses.
        n = cluster.config.replicas
        assert total_writes == 12 * n
        assert total_reads >= 12 * n  # read repair may add more

    def test_snapshot_vnode_feed_matches_node_statuses(self):
        obs = Observability(metrics=True)
        cluster = _build(obs=obs)
        cluster.run(_workload(cluster.client("w")))
        snap = obs.snapshot()
        for name, node in cluster.nodes.items():
            exported = snap["vnodes"][name]
            assert exported == node.vstats.per_vnode()


class TestComponentCounters:
    def test_workload_populates_each_layer(self):
        obs = Observability(metrics=True, tracing=True)
        cluster = _build(obs=obs)
        client = cluster.client("w")
        cluster.run(_workload(client))
        snap = obs.snapshot()
        series = snap["series"]

        def total(metric):
            return sum(data["value"] for label, data in series.items()
                       if label.endswith("/" + metric)
                       and data["type"] == "counter")

        assert total("store.writes_ok") == 12 * cluster.config.replicas
        assert total("store.reads") > 0
        assert total("zk.reads") > 0
        assert total("cache.lookups") > 0
        # Client latency histograms observed one sample per op.
        writes = series["w/client.write_seconds"]
        reads = series["w/client.read_seconds"]
        assert writes["count"] == 12 and reads["count"] == 12
        # Coordinator fan-out histogram sampled once per primary quorum.
        fanouts = [data for label, data in series.items()
                   if label.endswith("/quorum.fanout")]
        assert sum(h["count"] for h in fanouts) == 24

    def test_store_series_continue_across_a_restart(self):
        """``store.*`` is read from the store's own ints at snapshot
        time; a restarted node's fresh store continues the series."""
        obs = Observability(metrics=True)
        cluster = _build(obs=obs)
        client = cluster.client("w")
        cluster.run(_workload(client))
        node = cluster.nodes["node1"]
        before = node.store.writes_ok
        cluster.crash_node("node1")
        cluster.settle(3.0)
        cluster.restart_node("node1")
        cluster.settle(1.0)
        cluster.run(_workload(client))
        after = node.store.writes_ok
        series = obs.snapshot()["series"]
        assert before > 0 and after > 0
        assert series["node1/store.writes_ok"]["value"] == before + after

    def test_restart_rewires_metrics_and_feed(self):
        obs = Observability(metrics=True)
        cluster = _build(obs=obs)
        cluster.run(_workload(cluster.client("w")))
        victim = cluster.node_names[0]
        node = cluster.nodes[victim]
        cluster.crash_node(victim)
        cluster.restart_node(victim)
        # The registry holds the rebuilt feed, not the pre-crash one.
        feeds = {feed.node: feed for feed in obs.metrics.feeds()}
        assert feeds[victim] is node.vstats
        # Post-restart traffic lands in the snapshot.
        client = cluster.client("w2", pinned=victim)

        def more():
            for i in range(8):
                yield from client.write_latest(f"post-restart-{i}", "v")
            return True

        cluster.run(more())
        snap = obs.snapshot()
        assert snap["vnodes"][victim]  # fresh feed exports rows


class TestSeedZeroSnapshot:
    """``python -m repro.obs --seed 0 --json`` equals the checked-in
    ``snapshot_seed0.json``, series for series (CI diffs the two as
    well).  Only a change to the obs series may regenerate it::

        PYTHONPATH=src python -m repro.obs --seed 0 \\
            --json tests/obs/snapshot_seed0.json
    """

    def test_matches_the_checked_in_copy(self, tmp_path):
        out = tmp_path / "snapshot.json"
        assert obs_cli.main(["--seed", "0", "--json", str(out)]) == 0
        want = Path(__file__).with_name("snapshot_seed0.json")
        assert json.loads(out.read_text()) == json.loads(want.read_text())


class TestDisabledPath:
    def test_plain_cluster_does_not_touch_shared_registry(self):
        before = len(list(DISABLED.feeds()))
        cluster = _build(obs=None)
        cluster.run(_workload(cluster.client("w")))
        assert len(list(DISABLED.feeds())) == before
        assert DISABLED.snapshot()["series"] == {}
        # The always-on feed still accumulates for the rebalancer.
        total = sum(node.vstats.row()["writes"]
                    for node in cluster.nodes.values())
        assert total == 12 * cluster.config.replicas

    def test_disabled_and_enabled_histories_match(self):
        """Metrics-only observability must not perturb the simulation:
        same seed, same workload, same final store state."""
        def run(obs):
            cluster = _build(obs=obs)
            cluster.run(_workload(cluster.client("w")))
            return {name: sorted(node.store.rows)
                    for name, node in cluster.nodes.items()}

        assert run(None) == run(Observability(metrics=True))
