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
a moved golden.  Regenerate (only for a deliberate wire change) with
``PYTHONPATH=src python tests/core/test_wire_shapes.py``.
"""

import itertools

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.types import FullKey
from repro.net.tap import NetworkTap
from repro.net.transport import estimate_size


class SizingTap(NetworkTap):
    """A tap that also sizes the data-plane requests and their replies."""

    def __init__(self, network):
        self.calls = []          # [method, request size, reply size | None]
        self._open = {}          # (caller, call id) -> its row in calls
        super().__init__(network, keep_records=False)

    def _observe(self, src, dst, payload):
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind == "req" and payload["method"].startswith(("sedna.",
                                                            "replica.")):
            row = [payload["method"], estimate_size(payload["args"]), None]
            self.calls.append(row)
            self._open[(src, payload["id"])] = row
        elif kind == "resp" and (dst, payload["id"]) in self._open:
            self._open.pop((dst, payload["id"]))[2] = estimate_size(
                payload["result"])
        return super()._observe(src, dst, payload)

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


def record_shapes():
    """{route: {verb: [(method, request size, reply size), ...]}}."""
    shapes = {}
    for route in ("proxy", "zero-hop"):
        cluster = SednaCluster(n_nodes=3, zk_size=3, seed=7,
                               config=SednaConfig(num_vnodes=8))
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
    return shapes


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


@pytest.fixture(scope="module")
def shapes():
    return record_shapes()


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


def render(shapes):
    """``EXPECTED = {...}`` source text, runs of one call folded."""
    lines = ["EXPECTED = {"]
    for route, verbs in shapes.items():
        lines.append(f"    {route!r}: {{")
        for verb, calls in verbs.items():
            lines.append(f"        {verb!r}: [")
            for call, run in itertools.groupby(calls):
                n = len(list(run))
                lines.append(f"            {call!r}," if n == 1
                             else f"            *[{call!r}] * {n},")
            lines.append("        ],")
        lines.append("    },")
    return "\n".join(lines + ["}"])


if __name__ == "__main__":
    print(render(record_shapes()))
