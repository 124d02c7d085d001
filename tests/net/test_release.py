"""Release guard: what settles lets go by refcount.

Nothing on the data path may need CPython's cycle collector.  A moot
timer is defused in place (queued, numbered, runs nothing) instead of
holding its waiter until its instant, and a finished process drops the
bound resume callback that was its one reference back to itself.  Each
check below runs with the collector disabled, so an object that only a
collection could free shows up as a live weakref or as a non-zero
``gc.collect()``.
"""

import gc
import weakref

import pytest

import repro.core.coordinator as coordinator_mod
import repro.net.rpc as rpc_mod
from repro.core.cluster import SednaCluster
from repro.net.rpc import RpcRejected, RpcTimeout
from repro.net.simulator import AnyOf, Process, Simulator


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
    # Boot, connect and each node's first imbalance push (a ZooKeeper
    # set that misses, then a create) leave exception -> traceback ->
    # frame cycles of their own, outside the data path; the mix must not.
    cluster.settle(cluster.config.imbalance_push_interval + 1.0)
    gc.collect()
    assert cluster.run(_mix(proxy, "proxy")) == ["y"]
    assert cluster.run(_mix(smart, "smart")) == ["y"]
    assert cluster.run(_failures(proxy.rpc, "node0")) == [
        "no-such-method:sedna.no-such-verb", "timeout"]
    cluster.settle(5.0)  # let every laggard, deadline and lease run out
    assert gc.collect() == 0


def test_settled_waits_and_races_die_while_their_deadlines_queue(
        cluster, collector_off, monkeypatch):
    """Once an op returns, its QuorumWait and RpcNode.call's AnyOf are
    gone, though the deadlines they armed have not fired yet."""
    waits, races = weakref.WeakSet(), weakref.WeakSet()
    made = []

    class TrackedWait(rpc_mod.QuorumWait):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            waits.add(self)
            made.append("wait")

    class TrackedAnyOf(AnyOf):
        __slots__ = ("__weakref__",)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            races.add(self)
            made.append("race")

    monkeypatch.setattr(coordinator_mod, "QuorumWait", TrackedWait)
    monkeypatch.setattr(rpc_mod, "AnyOf", TrackedAnyOf)
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
    assert cluster.sim.now < started + cluster.config.request_timeout
    assert len(waits) == 0
    assert len(races) == 0


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
    assert not proc.is_alive and proc.ok is (not fails)
    ref = weakref.ref(proc)
    del proc
    assert ref() is None
