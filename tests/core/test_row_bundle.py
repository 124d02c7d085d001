"""The row bundle: one format, one merge, one push.

Every bulk path (join hand-off, re-duplication, anti-entropy, GC, live
migration) ships ``{"rows", "lww", "dvv_rows"}`` built by
``SednaNode._export_rows`` and merged by ``SednaNode._import_rows``
(docs/protocols.md §5.1).  Both merges are idempotent, so this is the
place that pins "import twice = import once" — for the helper, and for
the two RPCs that deliver bundles — ahead of a fault model that
duplicates messages.  The last test keeps the format in one place: an
AST walk over ``src/repro/core`` for dict displays spelling it out.
"""

import ast
from pathlib import Path

import pytest

from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.node import SednaNode
from repro.core.types import FullKey

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


@pytest.fixture(scope="module")
def cluster():
    """Three nodes holding every key: LWW rows, two-source value lists
    and causal rows with two siblings."""
    cluster = SednaCluster(n_nodes=3, zk_size=3,
                           config=SednaConfig(num_vnodes=8))
    cluster.start()
    one, two = cluster.client("one"), cluster.client("two")

    def seed():
        for i in range(6):
            yield from one.write_latest(f"l{i}", f"old-{i}")
            yield from two.write_latest(f"l{i}", f"new-{i}")
            yield from one.write_all(f"a{i}", f"one-{i}")
            yield from two.write_all(f"a{i}", f"two-{i}")
            yield from one.write_causal(f"c{i}", f"left-{i}")
            yield from two.write_causal(f"c{i}", f"right-{i}")

    cluster.run(seed())
    cluster.settle(0.5)
    return cluster


_spares = iter(range(1000))


def spare(cluster):
    """A constructed, never joined node: an empty store to import into."""
    return SednaNode(cluster.sim, cluster.network, f"spare{next(_spares)}",
                     cluster.ensemble.names, cluster.config,
                     cluster.zk_config)


def everything(node):
    """The whole of ``node`` as one bundle."""
    return node._export_rows(sorted(k for keys in node.vnode_keys.values()
                                    for k in keys))


def state(node):
    """What an import may change: digests, content, index, key stats."""
    vnodes = sorted(node.vnode_keys)
    return ({v: node.vnode_digest(v) for v in vnodes},
            {v: node.vnode_dvv_digest(v) for v in vnodes},
            everything(node),
            {v: sorted(node.vnode_keys[v]) for v in vnodes},
            {v: status.keys for v, status in node.vnode_status.items()})


class TestImportIsIdempotent:
    @pytest.mark.parametrize("flags", ["with-lww-flags", "without"])
    def test_twice_is_once(self, cluster, flags):
        bundle = everything(cluster.nodes["node0"])
        assert len(bundle["rows"]) == 12 and len(bundle["dvv_rows"]) == 6
        assert set(bundle["lww"].values()) == {True, False}
        assert all(len(blob["siblings"]) == 2
                   for blob in bundle["dvv_rows"].values())
        if flags == "without":
            bundle = dict(bundle, lww={})
        target = spare(cluster)
        # Every LWW row counts each time, a causal row only when it
        # changed ours: the number reconcile_vnode reports as pulled.
        assert target._import_rows(bundle) == 18
        once = state(target)
        assert target._import_rows(bundle) == 12
        assert state(target) == once
        assert sum(once[4].values()) == 18

    def test_two_bundles_commute(self, cluster):
        source = cluster.nodes["node0"]
        newer = everything(source)
        older = {part: dict(list(entries.items())[:4])
                 for part, entries in newer.items()}
        older["rows"] = {key: blob[:1] for key, blob
                         in older["rows"].items()}
        forward, backward = spare(cluster), spare(cluster)
        forward._import_rows(older)
        forward._import_rows(newer)
        backward._import_rows(newer)
        backward._import_rows(older)
        assert state(forward) == state(backward)

    def test_export_import_round_trips_a_vnode(self, cluster):
        source, target = cluster.nodes["node0"], spare(cluster)
        for vnode_id, keys in sorted(source.vnode_keys.items()):
            target._import_rows(source._export_rows(sorted(keys)))
            assert target.vnode_digest(vnode_id) == \
                source.vnode_digest(vnode_id)
            assert target.vnode_dvv_digest(vnode_id) == \
                source.vnode_dvv_digest(vnode_id)
        assert everything(target) == everything(source)
        assert state(target)[3] == state(source)[3]


class TestDuplicateDelivery:
    """The same request delivered twice: the second is a no-op."""

    def deliver_twice(self, cluster, method, payload):
        sender, receiver = cluster.nodes["node0"], cluster.nodes["node1"]
        replies, states = [], []
        for _ in range(2):
            replies.append(cluster.run(sender.rpc.call(
                "node1", method, payload, timeout=1.0)))
            states.append(state(receiver))
        assert states[0] == states[1]
        assert replies[0] == replies[1]
        return states[0]

    def test_replica_install(self, cluster):
        sender, receiver = cluster.nodes["node0"], cluster.nodes["node1"]
        keys = [FullKey.of(name).encoded() for name in ("l1", "a1", "c1")]
        before = state(receiver)
        for key in keys:
            assert receiver.store.delete(key)
        after = self.deliver_twice(
            cluster, "replica.install",
            {"vnode": receiver.cache.ring.vnode_of(keys[0]),
             **sender._export_rows(keys)})
        assert after == before      # and the first delivery did the work

    def test_migrate_forward_with_deletes(self, cluster):
        sender, receiver = cluster.nodes["node0"], cluster.nodes["node1"]
        kept = [FullKey.of(name).encoded() for name in ("l2", "c2")]
        dropped = FullKey.of("a2").encoded()
        for key in kept:
            assert receiver.store.delete(key)
        after = self.deliver_twice(
            cluster, "migrate.forward",
            {"vnode": receiver.cache.ring.vnode_of(dropped),
             "deletes": [dropped], **sender._export_rows(kept)})
        assert dropped not in after[2]["rows"]
        assert all(dropped not in keys for keys in after[3].values())
        assert set(kept) <= set(after[2]["rows"]) | set(after[2]["dvv_rows"])


def test_the_bundle_is_spelled_out_in_one_place():
    """Under ``src/repro/core`` a dict display with both a ``"rows"``
    and a ``"dvv_rows"`` key is the bundle's wire format: built by
    ``_export_rows``, and re-keyed only where a bundle travels inside a
    larger payload (the forwarding window's double-apply and the
    rebalancer's relay to ``migrate.forward``).  Likewise
    ``replica.install`` is named by its registration and by
    ``_push_rows``, nowhere else in node.py / gc.py."""
    builders, installers = set(), set()

    def walk(node, path, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Dict):
            keys = {k.value for k in node.keys if isinstance(k, ast.Constant)}
            if {"rows", "dvv_rows"} <= keys:
                builders.add((path.name, function))
        if isinstance(node, ast.Constant) and node.value == "replica.install" \
                and path.name in ("node.py", "gc.py"):
            installers.add((path.name, function))
        for child in ast.iter_child_nodes(node):
            walk(child, path, function)

    for path in sorted(CORE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert ("node.py", "_export_rows") in builders
    assert builders <= {("node.py", "_export_rows"),
                        ("node.py", "_h_migrate_chunk"),
                        ("node.py", "_spawn_forward"),
                        ("rebalance.py", "_relay")}, builders
    assert installers == {("node.py", "_register_rpc"),
                          ("node.py", "_push_rows")}
