"""The placement module: one handle on Sedna's cluster state in
ZooKeeper (§III.D–E), one writer of a vnode entry.

Covers the writer's outcomes, the two bootstraps' shared namespace
builder, the order of a join's claim walk and a concurrent join boot,
a race of two recoverers, and a pin on the module surface:
nothing else in ``core/`` spells the ZooKeeper layout or builds the
set + changelog transaction.
"""

import ast
import pathlib

import pytest

import repro.core
from repro.core.cache import Placement, ZkLayout
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.core.hashring import Ring
from repro.zk.znode import BadVersionError

CORE = pathlib.Path(repro.core.__file__).parent


def _cluster(n_nodes=4, num_vnodes=12, bootstrap="assign"):
    cluster = SednaCluster(n_nodes=n_nodes, zk_size=3, seed=3,
                           config=SednaConfig(num_vnodes=num_vnodes))
    cluster.start(bootstrap)
    return cluster


def _tree(cluster):
    return cluster.ensemble.leader().tree


def _owner(cluster, vnode_id):
    return _tree(cluster).get(ZkLayout.vnode(vnode_id))[0].decode()


def _changelog(cluster):
    tree = _tree(cluster)
    return sorted(tree.get_children(ZkLayout.CHANGELOG))


class TestRewrite:
    """``Placement.rewrite``: get, one set + changelog ``multi``, then
    the local ring."""

    def test_moves_the_entry_and_adds_one_changelog_entry(self):
        cluster = _cluster()
        node = cluster.nodes["node0"]
        owner = _owner(cluster, 5)
        before = _changelog(cluster)
        replaced = cluster.run(node.placement.rewrite(
            5, "node3", lambda o: o == owner))
        assert replaced == owner != "node3"
        assert _owner(cluster, 5) == "node3"
        assert node.cache.ring.owner(5) == "node3"
        added = [e for e in _changelog(cluster) if e not in before]
        assert len(added) == 1
        entry = _tree(cluster).get(f"{ZkLayout.CHANGELOG}/{added[0]}")[0]
        assert entry == b"5"

    def test_adopts_a_concurrent_owner_without_writing(self):
        cluster = _cluster()
        node, other = cluster.nodes["node0"], cluster.nodes["node1"]
        planned = _owner(cluster, 9)
        # Someone else moves the vnode first; node0's ring still has
        # the owner it planned from.
        cluster.run(other.placement.rewrite(9, "node2",
                                            lambda o: o == planned))
        assert node.cache.ring.owner(9) == planned != "node2"
        before = _changelog(cluster)
        replaced = cluster.run(node.placement.rewrite(
            9, "node3", lambda o: o == planned))
        assert replaced is None
        assert node.cache.ring.owner(9) == "node2"
        assert _owner(cluster, 9) == "node2"
        assert _changelog(cluster) == before

    def test_a_refusing_claim_leaves_the_ring_alone(self):
        cluster = _cluster()
        node = cluster.nodes["node0"]
        node.cache.ring.assign(7, Ring.UNASSIGNED)
        replaced = cluster.run(node.placement.rewrite(
            7, "node0", lambda o: False, adopt=False))
        assert replaced is None
        assert node.cache.ring.owner(7) == Ring.UNASSIGNED

    def test_lost_version_race_raises_and_writes_no_changelog_entry(self):
        cluster = _cluster()
        loser, winner = cluster.nodes["node0"], cluster.nodes["node1"]
        planned = _owner(cluster, 8)
        before = _changelog(cluster)
        multi = loser.zk.multi

        def raced_multi(ops):
            # The winner commits between the loser's read and its
            # transaction, so the loser's version is stale.
            yield from winner.placement.rewrite(8, "node2",
                                                lambda o: o == planned)
            return (yield from multi(ops))

        loser.zk.multi = raced_multi

        def attempt():
            try:
                yield from loser.placement.rewrite(8, "node3",
                                                   lambda o: o == planned)
            except BadVersionError:
                return "bad-version"
            return "committed"

        assert cluster.run(attempt()) == "bad-version"
        assert _owner(cluster, 8) == "node2"
        assert len(_changelog(cluster)) == len(before) + 1


class TestNamespace:
    def test_assign_and_join_bootstraps_build_the_same_namespace(self):
        def namespace(bootstrap):
            cluster = _cluster(n_nodes=3, num_vnodes=8, bootstrap=bootstrap)
            tree = _tree(cluster)
            shape = {}
            for path in tree.walk_paths():
                parent = path.rsplit("/", 1)[0]
                if parent in (ZkLayout.CHANGELOG, ZkLayout.REAL_NODES,
                              ZkLayout.IMBALANCE):
                    continue   # what the run wrote, not the bootstrap
                data = tree.get(path)[0]
                shape[path] = None if parent == ZkLayout.VNODES else data
            owners = [_owner(cluster, v) for v in range(8)]
            return shape, owners

        assigned, assigned_owners = namespace("assign")
        joined, joined_owners = namespace("join")
        assert assigned == joined
        assert assigned[ZkLayout.CONFIG] == b"8"
        assert set(assigned) >= {ZkLayout.vnode(v) for v in range(8)}
        assert assigned_owners == [f"node{v % 3}" for v in range(8)]
        assert set(joined_owners) <= {"node0", "node1", "node2"}


def _walk(cluster, name, cleared, monkeypatch):
    """The vnodes ``name``'s ``acquire`` tries, in order, after the
    vnodes of the ``cleared`` owners are unassigned in its cached ring;
    every claim is refused, so the walk covers the whole work list."""
    node = cluster.nodes[name]
    ring = node.cache.ring
    for v, owner in enumerate(ring.assignment):
        if owner in cleared:
            ring.assign(v, Ring.UNASSIGNED)
    walked = []

    def refused(vnode_id, target, took_over):
        walked.append(vnode_id)
        return False
        yield

    monkeypatch.setattr(node.placement, "_claim", refused)
    cluster.run(node.placement.acquire(None))
    return walked


class TestClaimWalk:
    """``Placement.acquire`` walks unassigned vnodes, then those of
    overloaded owners; a fresh joiner (one that owns no vnode in its
    cached ring) among several starts at its own slice."""

    def test_a_lone_fresh_joiner_walks_from_the_start(self, monkeypatch):
        cluster = _cluster()
        assert _walk(cluster, "node2", {"node2"}, monkeypatch) == [2, 6, 10]

    def test_a_joiner_that_owns_vnodes_walks_from_the_start(
            self, monkeypatch):
        cluster = _cluster()
        # node1 keeps vnode 1; node2 and node3 look fresh to it.
        cluster.nodes["node1"].cache.ring.assign(5, Ring.UNASSIGNED)
        cluster.nodes["node1"].cache.ring.assign(9, Ring.UNASSIGNED)
        assert _walk(cluster, "node1", {"node2", "node3"}, monkeypatch) \
            == [2, 3, 5, 6, 7, 9, 10, 11]

    def test_fresh_joiners_start_at_their_own_slices(self, monkeypatch):
        cluster = _cluster()
        cleared = {"node2", "node3"}
        assert _walk(cluster, "node2", cleared, monkeypatch) \
            == [2, 3, 6, 7, 10, 11]
        assert _walk(cluster, "node3", cleared, monkeypatch) \
            == [7, 10, 11, 2, 3, 6]


class TestConcurrentJoin:
    """Nine nodes boot by ``join`` on 128 vnodes; their claim walks
    start apart, so no claim loses its version race."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_no_claim_loses_its_race(self, seed, monkeypatch):
        lost = []
        rewrite = Placement.rewrite

        def counted(self, vnode_id, new_owner, replaceable, adopt=True):
            try:
                return (yield from rewrite(self, vnode_id, new_owner,
                                           replaceable, adopt))
            except BadVersionError:
                lost.append(vnode_id)
                raise

        monkeypatch.setattr(Placement, "rewrite", counted)
        cluster = SednaCluster(n_nodes=9, zk_size=3, seed=seed,
                               config=SednaConfig(num_vnodes=128))
        cluster.start("join")
        assert lost == []
        live = set(_tree(cluster).get_children(ZkLayout.REAL_NODES))
        owners = [_owner(cluster, v) for v in range(128)]
        assert set(owners) <= live
        # Eight joiners take 16 vnodes each; the namespace initialiser
        # ends with none (ROADMAP known-red (d)).
        assert sorted(owners.count(name) for name in live) == [0] + [16] * 8
        # 989 at seed 1 when every joiner walked from the same start.
        assert cluster.ensemble.stats()["writes_led"] == 407


class TestConcurrentRecovery:
    def test_two_recoverers_leave_n_distinct_live_owners(self):
        """Two nodes heal the same corpse at once, each planning from
        its own cached ring (the detector and a coordinator's
        investigation can do exactly this)."""
        cluster = _cluster(n_nodes=6, num_vnodes=16)
        n = cluster.config.replicas
        dead = "node5"
        cluster.crash_node(dead)
        # Let the corpse's ZooKeeper session expire.
        cluster.settle(cluster.zk_config.session_timeout * 3)

        def heal(node):
            ring = node.cache.ring
            affected = [v for v in range(ring.num_vnodes)
                        if dead in ring.replicas_for(v, n)]
            for vnode_id in affected:
                yield from node.recover(dead, vnode_id)

        cluster.run_all([heal(cluster.nodes["node0"]),
                         heal(cluster.nodes["node3"])])
        live = set(_tree(cluster).get_children(ZkLayout.REAL_NODES))
        assert dead not in live
        truth = Ring(16)
        for v in range(16):
            truth.assign(v, _owner(cluster, v))
        for v in range(16):
            replicas = truth.replicas_for(v, n)
            assert len(set(replicas)) == n, (v, replicas)
            assert set(replicas) <= live, (v, replicas)


def _source(name):
    return (CORE / name).read_text()


class TestSurface:
    @pytest.mark.parametrize("name", ["node.py", "detector.py",
                                      "cluster.py", "rebalance.py"])
    def test_no_zk_layout_outside_placement(self, name):
        assert "ZkLayout" not in _source(name)

    def test_one_site_builds_the_set_and_changelog_multi(self):
        sites = [(path.name, function, attr)
                 for path in sorted(CORE.glob("*.py"))
                 for function, attr in _calls(path.read_text())
                 if attr in ("multi", "op_set", "op_create")]
        assert sites == [("cache.py", "rewrite", "multi"),
                         ("cache.py", "rewrite", "op_set"),
                         ("cache.py", "rewrite", "op_create")]

    @pytest.mark.parametrize("name", ["detector.py", "rebalance.py"])
    def test_services_call_no_private_node_method(self, name):
        private = []
        for node in ast.walk(ast.parse(_source(name))):
            if not (isinstance(node, ast.Attribute)
                    and node.attr.startswith("_")):
                continue
            base = node.value
            while isinstance(base, ast.Attribute) and base.attr != "node":
                base = base.value
            if getattr(base, "attr", getattr(base, "id", None)) == "node":
                private.append(node.attr)
        assert private == []


def _calls(source):
    """``(innermost enclosing function, method name)`` of every
    ``x.method(...)`` call in ``source``, in source order."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func,
                                                     ast.Attribute):
            found.append((function, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found
