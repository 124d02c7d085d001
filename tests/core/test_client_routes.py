"""One client, two routes: every verb answers the same either way.

``SednaClient`` routes a request through any server (one hop, the node
coordinates); ``SmartSednaClient`` is the same client with the zero-hop
route (its own coordinator).  The verbs are defined once, so this suite
is parametrised over the *route* instead of repeating itself per class:
same seeded cluster, same script, same answers — including the failure
vocabulary (``failure`` / ``None`` / ``[]`` / ``False`` /
``CausalWriteAck(FAILURE)``) and the latency/failure accounting.
"""

import pytest

from repro.core.client import (CausalReadResult, CausalWriteAck,
                               SednaClient, SmartSednaClient)
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.obs import OFF, Observability
from repro.storage.versioned import ValueElement, WriteOutcome

ROUTES = ["proxy", "zero-hop"]


def make_client(cluster, route, name, obs=OFF):
    if route == "proxy":
        return SednaClient(cluster.sim, cluster.network, name,
                           cluster.node_names, cluster.config, obs=obs)
    client = SmartSednaClient(cluster.sim, cluster.network, name,
                              cluster.ensemble.names, cluster.config,
                              cluster.zk_config, obs=obs)
    cluster.run(client.connect())
    return client


def latency_series(obs, client):
    """The client's (read, write) latency histograms."""
    return (obs.metrics.histogram("client.read_seconds", node=client.name),
            obs.metrics.histogram("client.write_seconds", node=client.name))


def plain(value, me, ns):
    """A verb's result with what legitimately differs between two
    clients factored out: timestamps go, the key namespace goes, the
    caller's own name becomes ``"me"`` (it is the write source of its
    elements)."""
    def who(source):
        return "me" if source == me else source

    if isinstance(value, ValueElement):
        return (who(value.source), value.value)
    if isinstance(value, (CausalWriteAck, CausalReadResult)):
        head = (("ack", value.status, value.dot is not None)
                if isinstance(value, CausalWriteAck)
                else ("cread", value.found))
        return (*head, len(value.context),
                [(who(s), v) for s, _ts, v in value.siblings])
    if isinstance(value, dict):
        return {k.removeprefix(f"{ns}-"): plain(v, me, ns)
                for k, v in value.items()}
    if isinstance(value, list):
        return [plain(v, me, ns) for v in value]
    return value


def transcript(cluster, client, ns, latencies=None):
    """Every verb once, on keys of namespace ``ns``; [(verb, result)].
    Each call's ``(verb, latency)``, timed by ``sim.now`` around it,
    joins ``latencies`` when given."""
    log = []
    sim = cluster.sim

    def run(verb, *args, **kwargs):
        t0 = sim.now
        out = yield from getattr(client, verb)(*args, **kwargs)
        if latencies is not None:
            latencies.append((verb, sim.now - t0))
        log.append((verb, plain(out, client.name, ns)))
        return out

    def script():
        yield from run("write_latest", f"{ns}-lw", "v1")
        yield from run("write_latest", f"{ns}-lw", "v2")
        yield from run("read_latest", f"{ns}-lw")
        yield from run("read_latest_element", f"{ns}-lw")
        yield from run("read_latest", f"{ns}-absent")
        yield from run("read_latest_element", f"{ns}-absent")
        yield from run("write_all", f"{ns}-va", "a")
        yield from run("read_all", f"{ns}-va")
        yield from run("read_all", f"{ns}-absent")
        yield from run("delete", f"{ns}-lw")
        yield from run("read_latest", f"{ns}-lw")
        yield from run("write_causal", f"{ns}-cw", "c1")
        yield from run("write_causal", f"{ns}-cw", "c2")          # blind
        seen = yield from run("read_causal", f"{ns}-cw")
        yield from run("write_causal", f"{ns}-cw", "c3",
                       context=seen.context)                      # informed
        yield from run("read_causal", f"{ns}-cw")
        yield from run("read_causal", f"{ns}-absent")
        keys = [f"{ns}-m{i}" for i in range(6)]
        yield from run("multi_write",
                       {k: k[len(ns) + 1:].upper() for k in keys})
        yield from run("multi_read", keys + [f"{ns}-absent"])
        yield from run("multi_write", {keys[0]: "x", keys[1]: "y"},
                       mode="all")
        yield from run("multi_read_all", keys[:2] + [f"{ns}-absent"])
        yield from run("multi_delete", keys[:2] + [f"{ns}-absent"])
        yield from run("multi_read", keys[:3])

    cluster.run(script())
    return log


@pytest.fixture(scope="module")
def cluster():
    c = SednaCluster(n_nodes=4, zk_size=3, seed=11,
                     config=SednaConfig(num_vnodes=32))
    c.start()
    return c


@pytest.fixture(scope="module")
def transcripts(cluster):
    return {route: dict_of(transcript(
        cluster, make_client(cluster, route, f"routes-{route}"), route))
        for route in ROUTES}


def dict_of(log):
    """[(verb, result)] -> {"verb#n": result}, keeping call order."""
    seen, out = {}, {}
    for verb, result in log:
        seen[verb] = seen.get(verb, 0) + 1
        out[f"{verb}#{seen[verb]}"] = result
    return out


def test_both_routes_give_the_same_answers(transcripts):
    proxy, smart = (transcripts[r] for r in ROUTES)
    assert list(proxy) == list(smart)
    for step in proxy:
        assert proxy[step] == smart[step], step


@pytest.mark.parametrize("route", ROUTES)
def test_the_answers_are_the_right_ones(transcripts, route):
    """Equality alone would accept two routes that are wrong together."""
    t = transcripts[route]
    m = [f"m{i}" for i in range(6)]
    assert t["write_latest#1"] == WriteOutcome.OK
    assert t["read_latest#1"] == "v2"
    assert t["read_latest_element#1"] == ("me", "v2")
    assert t["read_latest#2"] is None and t["read_latest_element#2"] is None
    assert t["read_all#1"] == [("me", "a")] and t["read_all#2"] == []
    assert t["delete#1"] is True
    assert t["read_latest#3"] is None, "deleted"
    assert t["write_causal#1"] == ("ack", "ok", True, 1, [("me", "c1")])
    assert t["read_causal#1"][:2] == ("cread", True)
    assert sorted(t["read_causal#1"][3]) == [("me", "c1"), ("me", "c2")]
    assert t["read_causal#2"][3] == [("me", "c3")], "siblings superseded"
    assert t["read_causal#3"] == ("cread", False, 0, [])
    assert t["multi_write#1"] == {k: WriteOutcome.OK for k in m}
    assert t["multi_read#1"] == {**{k: k.upper() for k in m}, "absent": None}
    assert t["multi_read_all#1"] == {"m0": [("me", "x")],
                                     "m1": [("me", "y")], "absent": []}
    assert t["multi_delete#1"] == {"m0": True, "m1": True, "absent": True}
    assert t["multi_read#2"] == {"m0": None, "m1": None, "m2": "M2"}


@pytest.mark.parametrize("route", ROUTES)
def test_every_verb_is_accounted_by_one_rule(cluster, route):
    """Reads are observed in ``client.read_seconds``, everything else
    (deletes and the batched forms included) in
    ``client.write_seconds``, each with the latency its caller reads
    off ``sim.now``; nothing failed."""
    obs = Observability()
    client = make_client(cluster, route, f"acct-{route}", obs)
    timed = []
    log = transcript(cluster, client, f"acct-{route}", timed)
    reads = [dt for verb, dt in timed if "read" in verb]
    writes = [dt for verb, dt in timed if "read" not in verb]
    read_hist, write_hist = latency_series(obs, client)
    assert read_hist.count == len(reads) == sum(
        1 for verb, _r in log if "read" in verb)
    assert write_hist.count == len(writes) == len(log) - len(reads)
    assert read_hist.total == sum(reads)
    assert write_hist.total == sum(writes)
    assert client.failures == 0
    assert all(dt > 0 for dt in reads + writes)


@pytest.mark.parametrize("route", ROUTES)
def test_failure_vocabulary(route):
    """With the write and read quorums unreachable every verb fails in
    its own words — the same words on both routes — and every failure
    is counted once."""
    cluster = SednaCluster(n_nodes=3, zk_size=1, seed=5,
                           config=SednaConfig(num_vnodes=8))
    cluster.start()
    obs = Observability()
    client = make_client(cluster, route, "doomed", obs)
    cluster.run(client.write_causal("ctx", "seed"))
    cluster.crash_node("node1")
    cluster.crash_node("node2")
    context = (("node0", 1),)

    def script():
        return [
            (yield from client.write_latest("k", "v")),
            (yield from client.write_all("k", "v")),
            (yield from client.read_latest("k")),
            (yield from client.read_latest_element("k")),
            (yield from client.read_all("k")),
            (yield from client.delete("k")),
            (yield from client.write_causal("k", "v", context=context)),
            (yield from client.read_causal("k")),
            (yield from client.multi_write({"a": 1, "b": 2})),
            (yield from client.multi_read(["a", "b"])),
            (yield from client.multi_read_all(["a", "b"])),
            (yield from client.multi_delete(["a", "b"])),
        ]

    got = cluster.run(script())
    assert got == [
        WriteOutcome.FAILURE, WriteOutcome.FAILURE, None, None, [], False,
        CausalWriteAck(WriteOutcome.FAILURE, None, context), None,
        {"a": WriteOutcome.FAILURE, "b": WriteOutcome.FAILURE},
        {"a": None, "b": None}, {"a": [], "b": []},
        {"a": False, "b": False},
    ]
    # Every op is accounted once: observed when it completed, counted
    # in ``failures`` when it failed.
    read_hist, write_hist = latency_series(obs, client)
    assert read_hist.count + write_hist.count + client.failures == \
        6 + 6 + 1                                     # + the seeding write
    # The eight single-key verbs fail as operations.  A batch fails per
    # key inside a successful reply, so it only counts as a failed
    # operation when a proxy client found no live coordinator at all.
    if route == "zero-hop":
        assert client.failures == 8
        assert (read_hist.count, write_hist.count) == (2, 1 + 2)
    else:
        assert 8 <= client.failures <= 12
