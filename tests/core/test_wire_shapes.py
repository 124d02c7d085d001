"""Wire-shape pin: every client verb's RPCs, sized, through both routes.

``estimate_size(payload)`` feeds ``latency.delay`` and therefore every
golden digest, so a change to any ``sedna.*`` / ``replica.*`` payload or
reply shape moves interleavings far away from the edit.  This test pins
the shapes where they are made: on a 3-node ``assign`` cluster each
verb runs once through the proxy route (``SednaClient`` pinned to
node0, whose own replica op is a local dispatch and never on the wire)
and once through the zero-hop route (``SmartSednaClient``), and the
exact sequence of ``(method, estimate_size(request args),
estimate_size(reply))`` per op is compared with the table below —
recorded from the commit before the one-pipeline refactor.  A wire
change shows up here as a payload diff instead of being bisected out of
a moved golden.

The background plane gets the same guard: one seeded scenario walks the
bulk row bundle through every path that ships it (join hand-off, digest
reconcile, re-duplication, GC, live migration) and ``BACKGROUND`` pins
its ``replica.*`` / ``migrate.*`` traffic — recorded from the commit
before the row-bundle refactor.

Regenerate (only for a deliberate wire change) with
``PYTHONPATH=src python tests/core/test_wire_shapes.py``.
"""

import itertools

import pytest

import repro.core.node as node_mod
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.gc import GarbageCollector
from repro.core.node import SednaNode
from repro.core.rebalance import Migration, Rebalancer
from repro.core.types import FullKey
from repro.net.tap import NetworkTap
from repro.net.transport import estimate_size
from repro.obs import OFF, Observability


class SizingTap(NetworkTap):
    """A tap that sizes the data-plane requests and their replies, and
    keeps no records of its own."""

    def __init__(self, network):
        self.calls = []          # [method, request size, reply size | None]
        self._open = {}          # (caller, call id) -> its row in calls
        super().__init__(network)

    def _observe(self, src, dst, payload):
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == "req" and payload["method"].startswith(
                ("sedna.", "replica.", "migrate.")):
            row = [payload["method"], estimate_size(payload["args"]), None]
            self.calls.append(row)
            self._open[(src, payload["id"])] = row
        elif kind == "resp" and (dst, payload["id"]) in self._open:
            self._open.pop((dst, payload["id"]))[2] = estimate_size(
                payload["result"])
        return True  # pass-through, like every tap

    def drain(self):
        calls, self.calls = [tuple(row) for row in self.calls], []
        return calls


def _verbs(client, cluster):
    """(label, generator factory) per verb, in a fixed order; the two
    ``stale`` entries first drop one replica's copy so the read that
    follows has to repair it."""

    def lose(key):
        cluster.nodes["node1"].store.delete(FullKey.of(key).encoded())

    def stale(key, read):
        lose(key)
        return read

    return [
        ("write_latest", lambda: client.write_latest("lw", "value-1")),
        ("write_all", lambda: client.write_all("va", "value-2")),
        ("read_latest", lambda: client.read_latest("lw")),
        ("read_latest_element", lambda: client.read_latest_element("lw")),
        ("read_all", lambda: client.read_all("va")),
        ("read_latest/miss", lambda: client.read_latest("absent")),
        ("read_latest/stale",
         lambda: stale("lw", client.read_latest("lw"))),
        ("write_causal", lambda: client.write_causal("cw", "value-3")),
        ("read_causal", lambda: client.read_causal("cw")),
        ("multi_write", lambda: client.multi_write(
            {"m0": "v0", "m1": "v1", "m2": "v2"})),
        ("multi_write/all", lambda: client.multi_write(
            {"n0": "v0", "n1": "v1"}, mode="all")),
        ("multi_read", lambda: client.multi_read(["m0", "m1", "m2", "mx"])),
        ("multi_read/stale",
         lambda: stale("m1", client.multi_read(["m0", "m1", "m2"]))),
        ("multi_read_all", lambda: client.multi_read_all(["n0", "n1"])),
        ("delete", lambda: client.delete("lw")),
        ("multi_delete", lambda: client.multi_delete(["m0", "m2", "mx"])),
    ]


def record_shapes(traced=False):
    """{route: {verb: [(method, request size, reply size), ...]}}, and
    {route: every byte any endpoint sent} — envelopes, ZooKeeper and
    heartbeats included."""
    shapes, wire_bytes = {}, {}
    for route in ("proxy", "zero-hop"):
        obs = Observability() if traced else OFF
        cluster = SednaCluster(n_nodes=3, zk_size=3, seed=7,
                               config=SednaConfig(num_vnodes=8), obs=obs)
        cluster.start("assign")
        if route == "proxy":
            client = cluster.client("wire", pinned="node0")
        else:
            client = cluster.smart_client("wire")
            cluster.run(client.connect())
        tap = SizingTap(cluster.network)
        per_verb = {}
        for label, make in _verbs(client, cluster):
            cluster.run(make())
            cluster.settle(0.05)    # laggard replies belong to this op
            per_verb[label] = tap.drain()
        tap.detach()
        shapes[route] = per_verb
        wire_bytes[route] = sum(
            ep.sent_bytes for ep in cluster.network.endpoints.values())
        assert not traced or len(obs.tracer.traces) == len(per_verb)
    return shapes, wire_bytes


def record_background():
    """{step: [(method, request size, reply size), ...]} for the paths
    that move a vnode's rows between nodes.

    Three nodes, twelve vnodes, every key on every node; then ``node3``
    joins with one acquisition worker and claims vnodes 0-2, which also
    puts it into the replica sets of vnodes 10 and 11 with no rows, and
    leaves ``node2`` holding orphaned copies of vnodes 0-2.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(node_mod, "RETRIEVAL_THREADS", 1)
        return _background_steps()


def _background_steps():
    cluster = SednaCluster(n_nodes=3, zk_size=3, seed=7,
                           config=SednaConfig(num_vnodes=12, lease_base=0.5))
    cluster.start("assign")
    client = cluster.client("wire", pinned="node0")

    def seed():
        for i in range(12):
            yield from client.write_latest(f"l{i}", f"value-{i}")
        for i in range(6):
            yield from client.write_all(f"a{i}", f"list-{i}")
        for i in range(12):
            yield from client.write_causal(f"c{i}", f"causal-{i}")

    cluster.run(seed())
    cluster.settle(0.5)
    nodes = cluster.nodes
    tap = SizingTap(cluster.network)
    steps = {}

    def step(label, script=None, settle=0.05):
        if script is not None:
            cluster.run(script)
        cluster.settle(settle)
        steps[label] = tap.drain()

    def lose(node, *names):
        for name in names:
            assert nodes[node].store.delete(FullKey.of(name).encoded())

    node3 = nodes["node3"] = SednaNode(
        cluster.sim, cluster.network, "node3", cluster.ensemble.names,
        cluster.config, cluster.zk_config)
    cluster.node_names.append("node3")
    step("join/claim-pull", node3.join())
    # Two leases on, every claim re-pulls its predecessor and
    # digest-syncs with the other replicas (nothing to exchange).
    step("join/finish-handoff", settle=3.0)
    ring = node3.cache.ring
    assert [ring.replicas_for(v, 3) for v in (0, 10, 11)] == [
        ["node3", "node0", "node1"], ["node1", "node2", "node3"],
        ["node2", "node3", "node0"]]
    assert sorted(node3.vnode_keys) == [0, 1, 2]

    # Vnode 0 = l7 (latest), a0 (all), c11 (causal): node3 lacks two
    # rows node0 has, node0 lacks one node3 has; node1 needs nothing.
    lose("node3", "l7", "c11")
    lose("node0", "a0")
    step("reconcile/pull+push", node3.reconcile_vnode(0))

    # Re-duplication, one arm each: node3 pulls vnode 10 (c0) for
    # itself, node2 pushes its copy of vnode 11 (l2, a5, c7), and node3
    # - holding nothing of vnode 4 (l3, a4, c6) - relays node1's copy
    # to node0.
    step("reduplicate/pull", node3._reduplicate(10, "node3"))
    step("reduplicate/push", nodes["node2"]._reduplicate(11, "node3"))
    step("reduplicate/relay", node3._reduplicate(4, "node0"))

    # GC of node2's orphaned vnode 1 (l0, l11, c5, c9): node0 lost two
    # of its rows, so the janitor pushes them before it drops its own.
    lose("node0", "l0", "c5")
    collector = GarbageCollector(nodes["node2"], vnodes_per_pass=1)
    assert collector._orphaned_vnodes()[0] == 1
    step("gc/push-then-drop", collector.run_pass())
    assert collector.rows_pushed == 2 and collector.rows_dropped == 4

    # Live migration of vnode 7 (a1, c10, l6) from node1 to node3 in
    # two chunks: a one-byte pass budget parks the copy after the first
    # key, the receiver then loses that key, and the cutover verify has
    # to pull it again.
    balancer = Rebalancer(nodes["node0"])
    move = Migration(vnode=7, donor="node1", receiver="node3")
    step("migrate/begin+chunk", balancer._drive(move, 1))
    assert (move.state, move.chunks) == ("copying", 1)     # parked
    lose("node3", "a1")
    step("migrate/chunk+verify-pull+cutover",
         balancer._drive(move, balancer.pass_byte_budget))
    assert (move.state, move.chunks) == ("done", 2)
    tap.detach()
    return steps


EXPECTED = {
    'proxy': {
        'write_latest': [
            ('sedna.write', 71, 51),
            *[('replica.write', 84, 16)] * 2,
        ],
        'write_all': [
            ('sedna.write', 68, 51),
            *[('replica.write', 81, 16)] * 2,
        ],
        'read_latest': [
            ('sedna.read', 39, 74),
            *[('replica.read', 42, 55)] * 2,
        ],
        'read_latest_element': [
            ('sedna.read', 39, 74),
            *[('replica.read', 42, 55)] * 2,
        ],
        'read_all': [
            ('sedna.read', 36, 79),
            *[('replica.read', 42, 55)] * 2,
        ],
        'read_latest/miss': [
            ('sedna.read', 43, 47),
            *[('replica.read', 46, 28)] * 2,
        ],
        'read_latest/stale': [
            ('sedna.read', 39, 74),
            ('replica.read', 42, 28),
            ('replica.read', 42, 55),
            ('replica.repair', 89, 16),
        ],
        'write_causal': [
            ('sedna.cwrite', 72, 154),
            *[('replica.cmerge', 140, 16)] * 2,
        ],
        'read_causal': [
            ('sedna.cread', 29, 121),
            *[('replica.cread', 42, 106)] * 2,
        ],
        'multi_write': [
            ('sedna.mwrite', 221, 191),
            *[('replica.mwrite', 102, 44)] * 6,
        ],
        'multi_write/all': [
            ('sedna.mwrite', 149, 135),
            *[('replica.mwrite', 99, 44)] * 4,
        ],
        'multi_read': [
            ('sedna.mread', 102, 386),
            *[('replica.mread', 51, 98)] * 2,
            *[('replica.mread', 69, 98)] * 2,
            *[('replica.mread', 51, 98)] * 2,
        ],
        'multi_read/stale': [
            ('sedna.mread', 84, 308),
            *[('replica.mread', 51, 98)] * 4,
            ('replica.mread', 51, 31),
            ('replica.mread', 51, 98),
            ('replica.install', 111, 33),
        ],
        'multi_read_all': [
            ('sedna.mread', 63, 223),
            *[('replica.mread', 51, 98)] * 4,
        ],
        'delete': [
            ('sedna.delete', 29, 51),
            *[('replica.delete', 42, 16)] * 2,
        ],
        'multi_delete': [
            ('sedna.mdelete', 74, 191),
            *[('replica.mdelete', 51, 44)] * 2,
            *[('replica.mdelete', 69, 69)] * 2,
        ],
    },
    'zero-hop': {
        'write_latest': [
            *[('replica.write', 84, 16)] * 3,
        ],
        'write_all': [
            *[('replica.write', 81, 16)] * 3,
        ],
        'read_latest': [
            *[('replica.read', 42, 55)] * 3,
        ],
        'read_latest_element': [
            *[('replica.read', 42, 55)] * 3,
        ],
        'read_all': [
            *[('replica.read', 42, 55)] * 3,
        ],
        'read_latest/miss': [
            *[('replica.read', 46, 28)] * 3,
        ],
        'read_latest/stale': [
            ('replica.read', 42, 55),
            ('replica.read', 42, 28),
            ('replica.read', 42, 55),
            ('replica.repair', 89, 16),
        ],
        'write_causal': [
            ('replica.cwrite', 85, 138),
            *[('replica.cmerge', 140, 16)] * 2,
        ],
        'read_causal': [
            *[('replica.cread', 42, 106)] * 3,
        ],
        'multi_write': [
            *[('replica.mwrite', 102, 44)] * 9,
        ],
        'multi_write/all': [
            *[('replica.mwrite', 99, 44)] * 6,
        ],
        'multi_read': [
            *[('replica.mread', 51, 98)] * 3,
            *[('replica.mread', 69, 98)] * 3,
            *[('replica.mread', 51, 98)] * 3,
        ],
        'multi_read/stale': [
            *[('replica.mread', 51, 98)] * 6,
            ('replica.mread', 51, 31),
            *[('replica.mread', 51, 98)] * 2,
            ('replica.install', 111, 33),
        ],
        'multi_read_all': [
            *[('replica.mread', 51, 98)] * 6,
        ],
        'delete': [
            *[('replica.delete', 42, 16)] * 3,
        ],
        'multi_delete': [
            *[('replica.mdelete', 51, 44)] * 3,
            *[('replica.mdelete', 69, 69)] * 3,
        ],
    },
}

BACKGROUND = {
    'join/claim-pull': [
        ('replica.transfer', 21, 306),
        ('replica.transfer', 21, 422),
        ('replica.transfer', 21, 262),
    ],
    'join/finish-handoff': [
        ('replica.transfer', 21, 306),
        *[('replica.digest', 21, 210)] * 2,
        ('replica.transfer', 21, 422),
        *[('replica.digest', 21, 294)] * 2,
        ('replica.transfer', 21, 262),
        *[('replica.digest', 21, 171)] * 2,
    ],
    'reconcile/pull+push': [
        ('replica.digest', 21, 164),
        ('replica.fetch', 86, 235),
        ('replica.install', 131, 33),
        ('replica.digest', 21, 210),
    ],
    'reduplicate/pull': [
        ('replica.transfer', 21, 161),
    ],
    'reduplicate/push': [
        ('replica.install', 317, 33),
    ],
    'reduplicate/relay': [
        ('replica.transfer', 21, 304),
        ('replica.install', 317, 33),
    ],
    'gc/push-then-drop': [
        ('replica.digest', 21, 294),
        ('replica.digest', 21, 164),
        ('replica.install', 246, 33),
        ('replica.digest', 21, 294),
    ],
    'migrate/begin+chunk': [
        ('migrate.begin', 28, 28),
        ('migrate.chunk', 49, 148),
        ('migrate.forward', 131, 16),
    ],
    'migrate/chunk+verify-pull+cutover': [
        ('migrate.chunk', 49, 265),
        ('migrate.forward', 248, 16),
        ('replica.digest', 21, 210),
        ('replica.digest', 21, 164),
        ('replica.fetch', 54, 118),
        ('migrate.forward', 131, 16),
        *[('replica.digest', 21, 210)] * 2,
        ('migrate.settle', 21, 16),
        ('migrate.end', 31, 23),
    ],
}


@pytest.fixture(scope="module")
def recorded():
    return record_shapes()


@pytest.fixture(scope="module")
def shapes(recorded):
    return recorded[0]


@pytest.mark.parametrize("route", ["proxy", "zero-hop"])
def test_every_verb_keeps_its_wire_shape(shapes, route):
    assert set(shapes[route]) == set(EXPECTED[route])
    for verb, calls in shapes[route].items():
        assert calls == EXPECTED[route][verb], (
            f"{route} {verb}: wire shape changed\n"
            f"  want {EXPECTED[route][verb]}\n  got  {calls}")


def test_both_routes_speak_the_same_replica_protocol(shapes):
    """The replica-plane request sizes do not depend on who coordinates
    (the zero-hop client just also reaches node0 over the wire)."""
    for verb, calls in shapes["zero-hop"].items():
        proxy = {(m, size) for m, size, _reply in shapes["proxy"][verb]
                 if m.startswith("replica.")}
        smart = {(m, size) for m, size, _reply in calls}
        assert proxy <= smart, verb


def test_tracing_adds_nothing_to_the_wire(recorded):
    """Trace context rides ``Message.trace``, beside the sized payload:
    a traced pass hits the same pins, and the same total bytes."""
    assert record_shapes(traced=True) == (EXPECTED, recorded[1])


def test_background_plane_keeps_its_wire_shape():
    steps = record_background()
    assert list(steps) == list(BACKGROUND)
    for label, calls in steps.items():
        assert calls == BACKGROUND[label], (
            f"{label}: wire shape changed\n"
            f"  want {BACKGROUND[label]}\n  got  {calls}")


def _fold(calls, indent):
    """Source lines for a call list, runs of one call folded."""
    for call, run in itertools.groupby(calls):
        n = len(list(run))
        yield (f"{indent}{call!r}," if n == 1
               else f"{indent}*[{call!r}] * {n},")


def render(shapes, background):
    """``EXPECTED = {...}`` and ``BACKGROUND = {...}`` source text."""
    lines = ["EXPECTED = {"]
    for route, verbs in shapes.items():
        lines.append(f"    {route!r}: {{")
        for verb, calls in verbs.items():
            lines += [f"        {verb!r}: [", *_fold(calls, " " * 12),
                      "        ],"]
        lines.append("    },")
    lines += ["}", "", "BACKGROUND = {"]
    for label, calls in background.items():
        lines += [f"    {label!r}: [", *_fold(calls, " " * 8), "    ],"]
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(render(record_shapes()[0], record_background()))
