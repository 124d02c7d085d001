"""Release guard: what settles lets go by refcount.

Nothing on the data path may need CPython's cycle collector.  A moot
request deadline is cancelled (it keeps its sequence number, drops its
callback) and a moot timer is defused in place (queued, numbered, runs
nothing) instead of holding its waiter until its instant, and a
finished process drops the bound resume callback that was its one
reference back to itself.  An error that is kept rather than raised on
(a ZooKeeper transaction's outcome, a failed quorum's, a retried call's)
holds no traceback, whose frames would hold it back.  Each check below
runs with the collector disabled, so an object that only a collection
could free shows up as a live weakref, as a non-zero ``gc.collect()``
or in ``gc.garbage`` under ``DEBUG_SAVEALL``.
"""

import gc
import weakref

import pytest

import repro.core.coordinator as coordinator_mod
import repro.net.rpc as rpc_mod
from repro.core.cache import ZkLayout
from repro.core.cluster import SednaCluster
from repro.core.config import REQUEST_TIMEOUT, SednaConfig
from repro.net.rpc import RpcRejected, RpcTimeout
from repro.net.simulator import Deadline, Process, Simulator
from repro.zk.client import ZkClient
from repro.zk.znode import BadVersionError


@pytest.fixture
def collector_off():
    """Collect what earlier tests left, then keep the collector off."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def cluster():
    c = SednaCluster(n_nodes=4, zk_size=3, seed=7)
    c.start()
    return c


def _mix(client, tag):
    """Every data-path verb once, on one client route."""
    k = f"{tag}-k"
    yield from client.write_latest(k, "v1")
    yield from client.write_all(k, "v2")
    yield from client.read_latest(k)
    yield from client.read_all(k)
    yield from client.delete(k)
    keys = [f"{tag}-m{i}" for i in range(6)]
    yield from client.multi_write({key: i for i, key in enumerate(keys)})
    yield from client.multi_read(keys)
    yield from client.multi_read_all(keys)
    yield from client.multi_delete(keys)
    yield from client.write_causal(f"{tag}-c", "x")
    seen = yield from client.read_causal(f"{tag}-c")
    yield from client.write_causal(f"{tag}-c", "y", context=seen.context)
    final = yield from client.read_causal(f"{tag}-c")
    return [value for _src, _ts, value in final.siblings]


def _failures(rpc, node):
    """One refused call (no such method) and one timed-out call (no
    such endpoint), each caught where a client would catch it."""
    outcomes = []
    try:
        yield from rpc.call(node, "sedna.no-such-verb", {}, timeout=0.5)
    except RpcRejected as err:
        outcomes.append(err.reason)
    try:
        yield from rpc.call("nobody", "sedna.no-such-verb", {}, timeout=0.5)
    except RpcTimeout:
        outcomes.append("timeout")
    return outcomes


def test_scripted_mix_leaves_no_cycles(cluster, collector_off):
    proxy = cluster.client()
    smart = cluster.smart_client()
    cluster.run(smart.connect())
    assert cluster.run(_mix(proxy, "proxy")) == ["y"]
    assert cluster.run(_mix(smart, "smart")) == ["y"]
    assert cluster.run(_failures(proxy.rpc, "node0")) == [
        "no-such-method:sedna.no-such-verb", "timeout"]
    cluster.settle(5.0)  # let every laggard, deadline and lease run out
    assert gc.collect() == 0


def test_settled_waits_and_races_die_while_their_deadlines_queue(
        cluster, collector_off, monkeypatch):
    """Once an op returns, its QuorumWait and RpcNode.call's race are
    gone, though the deadlines they armed have not fired yet."""
    waits, races = weakref.WeakSet(), weakref.WeakSet()
    made = []

    class TrackedWait(rpc_mod.QuorumWait):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            waits.add(self)
            made.append("wait")

    class TrackedRace(rpc_mod._Race):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            races.add(self)
            made.append("race")

    monkeypatch.setattr(coordinator_mod, "QuorumWait", TrackedWait)
    monkeypatch.setattr(rpc_mod, "_Race", TrackedRace)
    proxy = cluster.client()
    started = cluster.sim.now
    assert cluster.run(proxy.write_latest("release-k", "v")) == "ok"
    assert cluster.run(proxy.read_latest("release-k")) == "v"
    monkeypatch.undo()
    # Let the third replica of each round answer, so no laggard
    # callback holds a wait either.
    cluster.settle(0.05)

    # One quorum wait per op on the coordinator, one call per op on the
    # client; none can have been freed by its deadline firing.
    assert sorted(made) == ["race", "race", "wait", "wait"]
    assert cluster.sim.now < started + REQUEST_TIMEOUT
    assert len(waits) == 0
    assert len(races) == 0


class _DeadlineCount:
    """Kernel tracer counting deadlines that fired and that were
    cancelled."""

    def __init__(self):
        self.fired = self.cancelled = 0

    def on_schedule(self, event, priority, when):
        pass

    def on_step(self, event, when, priority):
        if type(event) is Deadline:
            self.fired += 1

    def on_step_done(self, event):
        pass

    def on_drop(self, event):
        self.cancelled += 1


def test_silence_deadlines_leave_no_cycles(collector_off):
    """A crashed replica never answers, so the silence deadline of each
    write it lags on fires; the live replicas' answers cancel theirs.
    Neither path leaves the watch callback and its deadline in a cycle."""
    c = SednaCluster(n_nodes=4, zk_size=3, seed=11)
    c.start()
    smart = c.smart_client()
    c.run(smart.connect())
    c.settle(c.config.imbalance_push_interval + 1.0)
    c.crash_node("node3")
    gc.collect()
    count = c.sim.tracer = _DeadlineCount()
    try:
        for i in range(40):
            assert c.run(smart.write_latest(f"silent-{i}", "v")) == "ok"
        c.settle(2 * REQUEST_TIMEOUT)
    finally:
        c.sim.tracer = None
    assert count.fired > 0 and count.cancelled > 0
    assert gc.collect() == 0


def test_zero_hop_writes_keep_the_queue_at_in_flight_depth():
    """Cancelled request deadlines stay off the heap: after a few
    hundred zero-hop writes the kernel queue holds what is in flight
    (periodic daemons, one head per deadline FIFO), not one defused
    timer per request of the last ``REQUEST_TIMEOUT``."""
    c = SednaCluster(n_nodes=9, zk_size=3, seed=3)
    c.start()
    smart = c.smart_client()
    c.run(smart.connect())
    c.settle(10.0)  # past every timer the boot itself left queued

    def writes():
        for i in range(400):
            assert (yield from smart.write_latest(f"depth-{i}", "v")) == "ok"

    c.run(writes())
    sim = c.sim
    assert len(sim._queue) + (sim._nbuf is not None) < 100


def test_proxy_reads_keep_the_queue_at_in_flight_depth():
    """A proxy call's reply cancels its deadline: after 500 sequential
    proxy reads the queue holds what is in flight, not one timer per
    read of the last ``CLIENT_TIMEOUT``."""
    c = SednaCluster(n_nodes=9, zk_size=3, seed=3)
    c.start()
    proxy = c.client()
    assert c.run(proxy.write_latest("depth-k", "v")) == "ok"
    c.settle(10.0)  # past every timer the boot itself left queued

    def reads():
        for _ in range(500):
            assert (yield from proxy.read_latest("depth-k")) == "v"

    c.run(reads())
    sim = c.sim
    assert len(sim._queue) + (sim._nbuf is not None) <= 100


def _exceptions_only_a_collection_frees() -> list[str]:
    """Type names of the exceptions among the cyclic garbage."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage
                if isinstance(obj, BaseException)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_contested_join_boot_leaves_no_exception_cycles(collector_off):
    """Nine joiners boot on 128 vnodes, then two of them claim one
    vnode at once, both planning from its current owner, through
    version-checked multis, so one claim loses.  The leader returns the failed
    transaction's error instead of raising it on, and the claimant
    catches what its client raises; neither may leave an error in a
    cycle."""
    c = SednaCluster(n_nodes=9, zk_size=3, seed=7,
                     config=SednaConfig(num_vnodes=128))
    c.start("join")
    planned = c.ensemble.leader().tree.get(ZkLayout.vnode(0))[0].decode()
    claimants = [c.nodes[name] for name in sorted(c.nodes)
                 if name != planned][:2]
    lost = []

    def claim(node):
        try:
            yield from node.placement.rewrite(
                0, node.name, lambda owner: owner == planned, adopt=False)
        except BadVersionError:
            lost.append(node.name)

    c.run_all([claim(node) for node in claimants])
    assert len(lost) == 1
    assert _exceptions_only_a_collection_frees() == []


def test_faults_leave_no_exception_cycles(collector_off, monkeypatch):
    """A ZooKeeper call to a stopped server times out and is retried on
    the next one; a quorum write to a crashed replica set fails.  Each
    error that is kept (the retried call's, the failed quorum's) holds
    no traceback, so none is left in a cycle."""
    c = SednaCluster(n_nodes=4, zk_size=3, seed=7)
    c.start()
    smart = c.smart_client()
    c.run(smart.connect())
    gc.collect()

    stopped, *others = c.ensemble.servers[1:] + c.ensemble.servers[:1]
    assert not stopped.is_leader
    stopped.stop()
    probe = ZkClient(c.sim, c.network, "probe",
                     [s.name for s in (stopped, *others)])

    def zk_script():
        yield from probe.connect()
        yield from probe.get("/")

    c.run(zk_script())
    assert probe.retries == 1

    waits = []

    class TrackedWait(coordinator_mod.QuorumWait):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            waits.append(self)

    monkeypatch.setattr(coordinator_mod, "QuorumWait", TrackedWait)
    c.crash_node("node1")
    c.crash_node("node2")

    def writes():
        statuses = []
        for i in range(8):
            statuses.append((yield from smart.write_latest(f"faulted-{i}",
                                                           "v")))
        return statuses

    assert "failure" in c.run(writes())
    monkeypatch.undo()
    c.settle(2 * REQUEST_TIMEOUT)
    # A crashed replica's call never completes, so its wait (and the
    # error the wait failed with) stays reachable: check the error
    # holds no frame, as well as what the collector would free.
    failed = [w.done.value for w in waits if not w.done.ok]
    assert failed and all(isinstance(e, RpcTimeout) for e in failed)
    assert [e for e in failed if e.__traceback__ is not None] == []
    assert _exceptions_only_a_collection_frees() == []


class _WeakProcess(Process):
    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("fails", [False, True], ids=["succeeded", "failed"])
def test_finished_process_dies_on_del(collector_off, fails):
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        if fails:
            raise ValueError("boom")
        return "done"

    proc = _WeakProcess(sim, body())
    sim.run()
    assert proc.triggered and proc.ok is (not fails)
    ref = weakref.ref(proc)
    del proc
    assert ref() is None
