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

from repro.core.client import CausalReadResult, CausalWriteAck
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.storage.versioned import ValueElement, WriteOutcome

ROUTES = ["proxy", "zero-hop"]


def make_client(cluster, route, name):
    if route == "proxy":
        return cluster.client(name)
    client = cluster.smart_client(name)
    cluster.run(client.connect())
    return client


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


def transcript(cluster, client, ns):
    """Every verb once, on keys of namespace ``ns``; [(verb, result)]."""
    log = []

    def run(verb, *args, **kwargs):
        out = yield from getattr(client, verb)(*args, **kwargs)
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
    """Reads join ``read_latencies``, everything else (deletes and the
    batched forms included) ``write_latencies``; nothing failed."""
    client = make_client(cluster, route, f"acct-{route}")
    log = transcript(cluster, client, f"acct-{route}")
    reads = sum(1 for verb, _r in log if "read" in verb)
    assert len(client.read_latencies) == reads
    assert len(client.write_latencies) == len(log) - reads
    assert client.failures == 0
    assert all(dt > 0 for dt in client.read_latencies
               + client.write_latencies)


@pytest.mark.parametrize("route", ROUTES)
def test_failure_vocabulary(route):
    """With the write and read quorums unreachable every verb fails in
    its own words — the same words on both routes — and every failure
    is counted once."""
    cluster = SednaCluster(n_nodes=3, zk_size=1, seed=5,
                           config=SednaConfig(num_vnodes=8))
    cluster.start()
    client = make_client(cluster, route, "doomed")
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
    assert len(client.read_latencies) == 6
    assert len(client.write_latencies) == 6 + 1      # + the seeding write
    # The eight single-key verbs fail as operations.  A batch fails per
    # key inside a successful reply, so it only counts as a failed
    # operation when a proxy client found no live coordinator at all.
    assert client.failures == 8 if route == "zero-hop" \
        else 8 <= client.failures <= 12
