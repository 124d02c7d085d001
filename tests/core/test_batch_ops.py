"""Batched quorum operations: vnode grouping, RPC budget, per-key
statuses and partial-retry safety; single-key reads as one round each.

The headline acceptance numbers live in the integration half (a 64-key
``multi_read`` over 3 vnodes costs at most N x 3 = 9 replica RPCs; 8
concurrent single-key readers cost 8 fan-outs); the unit half pins
down the per-group decision logic against scripted replicas, mirroring
``test_coordinator_unit.py``.
"""

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import REQUEST_TIMEOUT, SednaConfig
from repro.core.coordinator import QuorumCoordinator, wire_elements
from repro.core.hashring import Ring
from repro.net.latency import NoLatency, UniformLatency
from repro.net.rpc import RpcNode, RpcRejected
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.obs import Observability
from repro.storage.versioned import ValueElement, WriteOutcome


# ======================================================================
# Integration: full cluster, smart client
# ======================================================================

@pytest.fixture(scope="module")
def batch_cluster():
    cluster = SednaCluster(n_nodes=3, zk_size=1,
                           config=SednaConfig(num_vnodes=3), seed=7)
    cluster.start()
    return cluster


class TestBatchRpcBudget:
    def test_64_key_multi_read_is_at_most_9_rpcs(self, batch_cluster):
        cluster = batch_cluster
        smart = cluster.smart_client("budget-client")
        keys = [f"budget-{i}" for i in range(64)]

        def script():
            yield from smart.connect()
            statuses = yield from smart.multi_write(
                {k: f"v-{k}" for k in keys})
            before = smart.rpc.calls_issued
            values = yield from smart.multi_read(keys)
            after = smart.rpc.calls_issued
            return statuses, values, after - before

        statuses, values, rpcs = cluster.run(script())
        assert all(s == WriteOutcome.OK for s in statuses.values())
        assert values == {k: f"v-{k}" for k in keys}
        # 3 vnodes x 3 replicas: one replica.mread per replica per
        # vnode-group, instead of 64 x 3 = 192 single-key fan-outs.
        assert rpcs <= 9, f"multi_read cost {rpcs} RPCs"

    def test_multi_write_budget_matches(self, batch_cluster):
        cluster = batch_cluster
        smart = cluster.smart_client("budget-writer")
        keys = [f"wbudget-{i}" for i in range(32)]

        def script():
            yield from smart.connect()
            before = smart.rpc.calls_issued
            statuses = yield from smart.multi_write(
                {k: "x" for k in keys})
            after = smart.rpc.calls_issued
            return statuses, after - before

        statuses, rpcs = cluster.run(script())
        assert all(s == WriteOutcome.OK for s in statuses.values())
        assert rpcs <= 9, f"multi_write cost {rpcs} RPCs"


class TestOneRoundPerRead:
    """A single-key read is exactly one fan-out to all N replicas
    (§III.C): concurrent reads of one key never share or wait on each
    other's rounds."""

    def test_concurrent_reads_each_fan_out(self, batch_cluster):
        cluster = batch_cluster
        smart = cluster.smart_client("herd-client")

        def write():
            yield from smart.connect()
            yield from smart.write_latest("herd-key", "herd-value")

        cluster.run(write())
        before = smart.rpc.calls_issued
        results = cluster.run_all(
            [smart.read_latest("herd-key") for _ in range(8)])
        assert results == ["herd-value"] * 8
        assert smart.rpc.calls_issued - before == 8 * 3

    def test_a_read_never_waits_out_an_older_round(self):
        """A read invoked while an older read of its key is in flight
        takes exactly as long as one invoked the same way behind a read
        of another key: one round, behind the same service queues."""
        cluster = SednaCluster(
            n_nodes=3, zk_size=1, config=SednaConfig(num_vnodes=3),
            latency=UniformLatency(propagation=200e-6, jitter=0.0))
        cluster.start()
        smart = cluster.smart_client("late-client")

        def timed(key):
            invoked = cluster.sim.now
            value = yield from smart.read_latest(key)
            return value, cluster.sim.now - invoked

        def behind(older, key):
            first = cluster.sim.process(timed(older))
            yield cluster.sim.timeout(1e-4)
            second = yield from timed(key)
            yield first
            return second

        def script():
            yield from smart.connect()
            yield from smart.write_latest("key-a", "va")
            yield from smart.write_latest("key-b", "vb")
            other = yield from behind("key-b", "key-a")
            rpcs = smart.rpc.calls_issued
            same = yield from behind("key-a", "key-a")
            return other, same, smart.rpc.calls_issued - rpcs

        other, same, rpcs = cluster.run(script())
        assert rpcs == 2 * 3, "two reads, two fan-outs"
        assert other[0] == same[0] == "va"
        assert same[1] == pytest.approx(other[1], rel=1e-9)


class TestLatencyFromInvocation:
    def test_a_retried_write_records_its_whole_latency(self):
        """``coord.write.latency`` times a write from its invocation to
        its reply, once: a first round that times out counts."""
        obs = Observability()
        cluster = SednaCluster(n_nodes=3, zk_size=1,
                               config=SednaConfig(num_vnodes=3), seed=7,
                               obs=obs)
        cluster.start()
        smart = cluster.smart_client("retry-client")
        # Two of the three replicas drop their first replica.write.
        for name in cluster.node_names[:2]:
            rpc = cluster.nodes[name].rpc
            handler = rpc._handlers["replica.write"]
            silent = [cluster.sim.event()]

            def once(src, args, handler=handler, silent=silent):
                return silent.pop() if silent else handler(src, args)

            rpc.register("replica.write", once)

        def script():
            yield from smart.connect()
            invoked = cluster.sim.now
            status = yield from smart.write_latest("slow-key", "v")
            return status, cluster.sim.now - invoked

        status, took = cluster.run(script())
        assert status == WriteOutcome.OK
        assert smart.coordinator.coordinated_writes == 2, "retried once"
        latency = obs.snapshot()["series"][
            "retry-client/coord.write.latency"]
        assert latency["count"] == 1
        assert latency["sum"] == pytest.approx(took)
        assert latency["sum"] >= REQUEST_TIMEOUT


# ======================================================================
# Unit: scripted replicas
# ======================================================================

class BatchReplica:
    """A scripted replica speaking the batch protocol."""

    def __init__(self, sim, network, name):
        self.sim = sim
        self.name = name
        self.rpc = RpcNode(network, name)
        self.rows = {}                  # key -> [ValueElement]
        self.refuse_vnodes = set()      # always refuse these groups
        self.refuse_vnodes_once = set()  # refuse first call only
        self.mwrites = []
        self.mreads = []
        self.mdeletes = []
        self.installs = []
        self.rpc.register("replica.mwrite", self._mwrite)
        self.rpc.register("replica.mread", self._mread)
        self.rpc.register("replica.mdelete", self._mdelete)
        self.rpc.register("replica.install", self._install)

    def _gate(self, vnode):
        if vnode in self.refuse_vnodes:
            raise RpcRejected("not-owner")
        if vnode in self.refuse_vnodes_once:
            self.refuse_vnodes_once.discard(vnode)
            raise RpcRejected("not-owner")

    def _mwrite(self, src, args):
        self._gate(args["vnode"])
        self.mwrites.append(args)
        return {"statuses": {e["key"]: WriteOutcome.OK
                             for e in args["entries"]}}

    def _mread(self, src, args):
        self._gate(args["vnode"])
        self.mreads.append(args)
        rows = {k: wire_elements(self.rows[k])
                for k in args["keys"] if self.rows.get(k)}
        return {"rows": rows}

    def _mdelete(self, src, args):
        self._gate(args["vnode"])
        self.mdeletes.append(args)
        return {"statuses": {k: "ok" for k in args["keys"]}}

    def _install(self, src, args):
        self.installs.append(args)
        return {"status": "ok"}


class BatchCache:
    """Fixed 4-vnode ring over three replicas, countable invalidations."""

    def __init__(self, config, owners=("r0", "r1", "r2")):
        self.config = config
        self.ring = Ring(4)
        for v in range(4):
            self.ring.assign(v, owners[v % len(owners)])
        self.loaded = True
        self.invalidated = []

    def replicas_for_key(self, key):
        return self.ring.replicas_for_key(key, self.config.replicas)

    def invalidate(self, vnode_id):
        self.invalidated.append(vnode_id)
        return
        yield  # pragma: no cover - generator form


@pytest.fixture
def batch_world():
    sim = Simulator()
    network = Network(sim, latency=NoLatency())
    config = SednaConfig(num_vnodes=4)
    replicas = {name: BatchReplica(sim, network, name)
                for name in ("r0", "r1", "r2")}
    cache = BatchCache(config)
    coordinator = QuorumCoordinator(
        sim, RpcNode(network, "coordinator"), cache, config)
    return sim, coordinator, replicas, cache


def drive(sim, gen):
    proc = sim.process(gen)
    return sim.run(until=proc)


def keys_in_distinct_vnodes(ring, count, tag="bk"):
    """Probe for ``count`` keys hashing into distinct vnodes."""
    found = {}
    i = 0
    while len(found) < count:
        key = f"{tag}-{i}"
        v = ring.vnode_of(key)
        found.setdefault(v, key)
        i += 1
    return dict(sorted(found.items()))  # vnode -> key


def mwrite_args(keys):
    return {"entries": [{"key": k, "value": f"v-{k}", "ts": 1.0,
                         "source": "cli", "mode": "latest"}
                        for k in keys]}


class TestMultiWriteGroups:
    def test_groups_by_vnode_one_rpc_per_replica(self, batch_world):
        sim, coordinator, replicas, _cache = batch_world
        by_vnode = keys_in_distinct_vnodes(_cache.ring, 2)
        keys = list(by_vnode.values())
        result = drive(sim, coordinator.coordinate("sedna.mwrite",
            mwrite_args(keys)))
        for k in keys:
            assert result["results"][k]["status"] == WriteOutcome.OK
        for r in replicas.values():
            assert len(r.mwrites) == 2, "one mwrite per vnode-group"
            assert {m["vnode"] for m in r.mwrites} == set(by_vnode)

    def test_partial_quorum_failure_is_per_key(self, batch_world):
        """One vnode-group failing its quorum must not fail the keys of
        a group that met its quorum."""
        sim, coordinator, replicas, _cache = batch_world
        by_vnode = keys_in_distinct_vnodes(_cache.ring, 2)
        bad_vnode, good_vnode = sorted(by_vnode)
        for r in replicas.values():
            r.refuse_vnodes.add(bad_vnode)
        result = drive(sim, coordinator.coordinate("sedna.mwrite",
            mwrite_args(list(by_vnode.values()))))
        assert (result["results"][by_vnode[bad_vnode]]["status"]
                == WriteOutcome.FAILURE)
        good = result["results"][by_vnode[good_vnode]]
        assert good["status"] == WriteOutcome.OK
        assert len(good["acks"]) >= 2

    def test_stale_group_retry_does_not_reapply_acked_group(
            self, batch_world):
        """A stale-mapping retry re-sends only the failed group's
        entries: keys already acked under their own quorum are never
        applied twice."""
        sim, coordinator, replicas, cache = batch_world
        by_vnode = keys_in_distinct_vnodes(cache.ring, 2)
        stale_vnode, fine_vnode = sorted(by_vnode)
        for r in replicas.values():
            r.refuse_vnodes_once.add(stale_vnode)
        result = drive(sim, coordinator.coordinate("sedna.mwrite",
            mwrite_args(list(by_vnode.values()))))
        for k in by_vnode.values():
            assert result["results"][k]["status"] == WriteOutcome.OK
        assert stale_vnode in cache.invalidated
        for r in replicas.values():
            sent = [m["vnode"] for m in r.mwrites]
            assert sent.count(fine_vnode) == 1, (
                "acked group re-sent on a sibling group's retry")
            assert sent.count(stale_vnode) == 1, (
                "retried group applies exactly once (refusals apply "
                "nothing)")


class TestMultiReadGroups:
    def test_per_key_found_and_miss(self, batch_world):
        sim, coordinator, replicas, cache = batch_world
        by_vnode = keys_in_distinct_vnodes(cache.ring, 2)
        hit, miss = list(by_vnode.values())
        for r in replicas.values():
            r.rows[hit] = [ValueElement("w", 2.0, "val")]
        result = drive(sim, coordinator.coordinate("sedna.mread",
            {"keys": [hit, miss]}))
        assert result["results"][hit]["found"] is True
        assert result["results"][hit]["value"] == "val"
        assert result["results"][miss]["found"] is False

    def test_stale_replica_gets_batched_install(self, batch_world):
        sim, coordinator, replicas, cache = batch_world
        by_vnode = keys_in_distinct_vnodes(cache.ring, 1)
        key = next(iter(by_vnode.values()))
        fresh = [ValueElement("w", 2.0, "new")]
        replicas["r0"].rows[key] = fresh
        replicas["r1"].rows[key] = fresh
        replicas["r2"].rows[key] = [ValueElement("w", 1.0, "old")]
        result = drive(sim, coordinator.coordinate("sedna.mread",
            {"keys": [key]}))
        assert result["results"][key]["value"] == "new"
        sim.run(until=sim.now + 1.0)
        installed = [i for i in replicas["r2"].installs
                     if key in i["rows"]]
        assert installed, "stale replica repaired via replica.install"
        assert ("w", 2.0, "new") in installed[0]["rows"][key]
        assert coordinator.read_repairs >= 1

    def test_mode_all_merges_lists(self, batch_world):
        sim, coordinator, replicas, cache = batch_world
        by_vnode = keys_in_distinct_vnodes(cache.ring, 1)
        key = next(iter(by_vnode.values()))
        replicas["r0"].rows[key] = [ValueElement("a", 1.0, "va")]
        replicas["r1"].rows[key] = [ValueElement("b", 2.0, "vb")]
        result = drive(sim, coordinator.coordinate("sedna.mread",
            {"keys": [key], "mode": "all"}))
        sources = {s for s, _t, _v in result["results"][key]["elements"]}
        assert sources == {"a", "b"}

    def test_group_quorum_failure_per_key_status(self, batch_world):
        sim, coordinator, replicas, cache = batch_world
        by_vnode = keys_in_distinct_vnodes(cache.ring, 2)
        bad_vnode, good_vnode = sorted(by_vnode)
        for r in replicas.values():
            r.refuse_vnodes.add(bad_vnode)
            r.rows[by_vnode[good_vnode]] = [ValueElement("w", 1.0, "x")]
        result = drive(sim, coordinator.coordinate("sedna.mread",
            {"keys": list(by_vnode.values())}))
        assert result["results"][by_vnode[bad_vnode]]["status"] == "failure"
        assert result["results"][by_vnode[good_vnode]]["value"] == "x"


class TestMultiDeleteGroups:
    def test_per_key_acks(self, batch_world):
        sim, coordinator, replicas, cache = batch_world
        by_vnode = keys_in_distinct_vnodes(cache.ring, 2)
        keys = list(by_vnode.values())
        result = drive(sim, coordinator.coordinate("sedna.mdelete",
            {"keys": keys}))
        for k in keys:
            assert result["results"][k]["status"] == "ok"
            assert len(result["results"][k]["acks"]) >= 2
        for r in replicas.values():
            assert {m["vnode"] for m in r.mdeletes} == set(by_vnode)
