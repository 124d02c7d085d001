"""Unit and property tests for the znode tree."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.zk.znode import (BadVersionError, NodeExistsError, NoNodeError,
                            NotEmptyError, ZkError, ZnodeTree, validate_path)


@pytest.fixture
def tree():
    return ZnodeTree()


class TestPathValidation:
    @pytest.mark.parametrize("bad", ["", "relative", "/end/", "/a//b"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ZkError):
            validate_path(bad)

    @pytest.mark.parametrize("good", ["/", "/a", "/a/b/c"])
    def test_accepts_wellformed(self, good):
        validate_path(good)


class TestCreate:
    def test_create_and_get(self, tree):
        assert tree.create("/a", b"data", zxid=1) == "/a"
        data, stat = tree.get("/a")
        assert data == b"data"
        assert stat.czxid == 1 and stat.version == 0

    def test_create_nested(self, tree):
        tree.create("/a", b"", zxid=1)
        tree.create("/a/b", b"x", zxid=2)
        assert tree.get("/a/b")[0] == b"x"

    def test_create_missing_parent(self, tree):
        with pytest.raises(NoNodeError):
            tree.create("/a/b", b"", zxid=1)

    def test_create_duplicate(self, tree):
        tree.create("/a", b"", zxid=1)
        with pytest.raises(NodeExistsError):
            tree.create("/a", b"", zxid=2)

    def test_create_root_rejected(self, tree):
        with pytest.raises(NodeExistsError):
            tree.create("/", b"", zxid=1)

    def test_create_updates_parent_stat(self, tree):
        tree.create("/a", b"", zxid=1)
        tree.create("/a/b", b"", zxid=2)
        _, stat = tree.get("/a")
        assert stat.num_children == 1 and stat.cversion == 1

    def test_sequential_names(self, tree):
        tree.create("/q", b"", zxid=1)
        p1 = tree.create("/q/item-", b"", zxid=2, sequential=True)
        p2 = tree.create("/q/item-", b"", zxid=3, sequential=True)
        assert p1 == "/q/item-0000000000"
        assert p2 == "/q/item-0000000001"

    def test_sequential_at_root(self, tree):
        assert tree.create("/s-", b"", zxid=1, sequential=True) == "/s-0000000000"

    def test_ephemeral_cannot_have_children(self, tree):
        tree.create("/e", b"", zxid=1, ephemeral_owner=7)
        with pytest.raises(ZkError):
            tree.create("/e/child", b"", zxid=2)


class TestSetDelete:
    def test_set_bumps_version(self, tree):
        tree.create("/a", b"v0", zxid=1)
        stat = tree.set("/a", b"v1", zxid=2)
        assert stat.version == 1 and stat.mzxid == 2
        assert tree.get("/a")[0] == b"v1"

    def test_set_version_check(self, tree):
        tree.create("/a", b"", zxid=1)
        tree.set("/a", b"x", zxid=2, expected_version=0)
        with pytest.raises(BadVersionError):
            tree.set("/a", b"y", zxid=3, expected_version=0)

    def test_set_missing(self, tree):
        with pytest.raises(NoNodeError):
            tree.set("/nope", b"", zxid=1)

    def test_delete(self, tree):
        tree.create("/a", b"", zxid=1)
        tree.delete("/a", zxid=2)
        assert tree.exists("/a") is None

    def test_delete_with_children_rejected(self, tree):
        tree.create("/a", b"", zxid=1)
        tree.create("/a/b", b"", zxid=2)
        with pytest.raises(NotEmptyError):
            tree.delete("/a", zxid=3)

    def test_delete_version_check(self, tree):
        tree.create("/a", b"", zxid=1)
        with pytest.raises(BadVersionError):
            tree.delete("/a", zxid=2, expected_version=5)

    def test_delete_root_rejected(self, tree):
        with pytest.raises(ZkError):
            tree.delete("/", zxid=1)


class TestExistsChildren:
    def test_exists(self, tree):
        assert tree.exists("/a") is None
        tree.create("/a", b"", zxid=1)
        assert tree.exists("/a").czxid == 1

    def test_get_children_sorted(self, tree):
        tree.create("/p", b"", zxid=1)
        for name in ["c", "a", "b"]:
            tree.create(f"/p/{name}", b"", zxid=2)
        assert tree.get_children("/p") == ["a", "b", "c"]

    def test_get_children_missing(self, tree):
        with pytest.raises(NoNodeError):
            tree.get_children("/nope")

    def test_root_children(self, tree):
        tree.create("/a", b"", zxid=1)
        assert tree.get_children("/") == ["a"]


class TestEphemerals:
    def test_tracked_per_session(self, tree):
        tree.create("/e1", b"", zxid=1, ephemeral_owner=10)
        tree.create("/e2", b"", zxid=2, ephemeral_owner=10)
        tree.create("/e3", b"", zxid=3, ephemeral_owner=20)
        assert set(tree.ephemerals_of(10)) == {"/e1", "/e2"}

    def test_remove_session_deletes_ephemerals(self, tree):
        tree.create("/e1", b"", zxid=1, ephemeral_owner=10)
        tree.create("/keep", b"", zxid=2)
        removed = tree.remove_session(10, zxid=3)
        assert removed == ["/e1"]
        assert tree.exists("/e1") is None
        assert tree.exists("/keep") is not None

    def test_explicit_delete_untracks(self, tree):
        tree.create("/e", b"", zxid=1, ephemeral_owner=10)
        tree.delete("/e", zxid=2)
        assert tree.ephemerals_of(10) == []

    def test_remove_unknown_session_noop(self, tree):
        assert tree.remove_session(999, zxid=1) == []


class TestSnapshot:
    def test_dump_load_roundtrip(self, tree):
        tree.create("/a", b"1", zxid=1)
        tree.create("/a/b", b"2", zxid=2)
        tree.create("/e", b"3", zxid=3, ephemeral_owner=7)
        tree.set("/a", b"1x", zxid=4)
        clone = ZnodeTree.load(tree.dump())
        assert list(clone.walk_paths()) == list(tree.walk_paths())
        assert clone.get("/a") == tree.get("/a")
        assert clone.ephemerals_of(7) == ["/e"]

    def test_sequence_counters_survive(self, tree):
        tree.create("/q", b"", zxid=1)
        tree.create("/q/i-", b"", zxid=2, sequential=True)
        clone = ZnodeTree.load(tree.dump())
        path = clone.create("/q/i-", b"", zxid=3, sequential=True)
        assert path == "/q/i-0000000001"


_names = st.sampled_from(["a", "b", "c", "d"])
_paths = st.lists(_names, min_size=1, max_size=3).map(lambda ps: "/" + "/".join(ps))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["create", "delete", "set"]), _paths),
                max_size=40))
def test_tree_matches_model(ops):
    """Property: the tree agrees with a flat dict model on membership."""
    tree = ZnodeTree()
    model: dict[str, bytes] = {}
    zxid = 0
    for op, path in ops:
        zxid += 1
        parent = path[:path.rfind("/")] or "/"
        if op == "create":
            if parent != "/" and parent not in model:
                with pytest.raises(NoNodeError):
                    tree.create(path, b"", zxid)
            elif path in model:
                with pytest.raises(NodeExistsError):
                    tree.create(path, b"", zxid)
            else:
                tree.create(path, b"", zxid)
                model[path] = b""
        elif op == "delete":
            has_kids = any(k.startswith(path + "/") for k in model)
            if path not in model:
                with pytest.raises(NoNodeError):
                    tree.delete(path, zxid)
            elif has_kids:
                with pytest.raises(NotEmptyError):
                    tree.delete(path, zxid)
            else:
                tree.delete(path, zxid)
                del model[path]
        else:
            if path not in model:
                with pytest.raises(NoNodeError):
                    tree.set(path, b"x", zxid)
            else:
                tree.set(path, b"x", zxid)
                model[path] = b"x"
    assert set(tree.walk_paths()) == set(model)


# -- transactions ---------------------------------------------------------
# A literal name shaped like a sequence suffix makes the one path where a
# sequential create bumps the counter and *then* raises NodeExists reachable.
_txn_paths = st.lists(st.sampled_from(["a", "b", "a0000000000"]),
                      min_size=1, max_size=2).map(lambda ps: "/" + "/".join(ps))
_versions = st.sampled_from([-1, 0, 1])
_txn_ops = st.one_of(
    st.tuples(st.just("create"), _txn_paths,
              st.sampled_from([0, 7, 8]), st.booleans()),  # owner, sequential
    st.tuples(st.just("set"), _txn_paths, _versions),
    st.tuples(st.just("delete"), _txn_paths, _versions),
)


def _step(tree, op, zxid):
    kind, path, *rest = op
    if kind == "create":
        owner, sequential = rest
        return tree.create(path, b"c%d" % zxid, zxid, ephemeral_owner=owner,
                           sequential=sequential)
    if kind == "set":
        return tree.set(path, b"s%d" % zxid, zxid, rest[0])
    return tree.delete(path, zxid, rest[0])


def _grow(prefix):
    """A tree with ``prefix`` applied singly, failures skipped."""
    tree = ZnodeTree()
    for zxid, op in enumerate(prefix, 1):
        try:
            _step(tree, op, zxid)
        except ZkError:
            pass
    return tree


_A = ("create", "/a", 0, False)
_FAIL = ("set", "/missing", -1)


@settings(max_examples=300, deadline=None)
@given(prefix=st.lists(_txn_ops, max_size=10),
       ops=st.lists(_txn_ops, min_size=1, max_size=6))
# The hot case in a join boot: the first step loses its version race.
@example(prefix=[_A], ops=[("set", "/a", 3), ("create", "/a/b", 0, True)])
# A sequential create's counter bump is undone ...
@example(prefix=[_A], ops=[("create", "/a/b", 0, True), _FAIL])
# ... also when the create itself fails after bumping it.
@example(prefix=[("create", "/a0000000000", 0, False)],
         ops=[("create", "/b", 0, False), ("create", "/a", 0, True)])
# An ephemeral create that made the session's index entry removes it again,
@example(prefix=[], ops=[("create", "/a", 7, False), _FAIL])
# but an entry that was already there — even emptied — stays.
@example(prefix=[("create", "/a", 7, False), ("delete", "/a", -1)],
         ops=[("create", "/b", 7, False), _FAIL])
# A delete's rollback re-adds the child and its ephemeral index entry.
@example(prefix=[_A, ("create", "/a/b", 7, False), ("create", "/b", 0, False)],
         ops=[("delete", "/a/b", -1), ("delete", "/b", -1), _FAIL])
@example(prefix=[_A], ops=[("set", "/a", 0), ("set", "/a", 1), _FAIL])
def test_transaction_is_all_or_nothing(prefix, ops):
    """A failing op list leaves no trace; a passing one equals the same
    ops applied one by one."""
    tree = _grow(prefix)
    before = tree.dump()
    index_before = {sid: set(paths) for sid, paths in tree._ephemerals.items()}
    root_before = tree.root
    zxid = len(prefix) + 1
    try:
        with tree.transaction():
            results = [_step(tree, op, zxid) for op in ops]
    except ZkError:
        assert tree.dump() == before
        assert tree._ephemerals == index_before
        assert tree.root is root_before
    else:
        reference = _grow(prefix)
        assert results == [_step(reference, op, zxid) for op in ops]
        assert tree.dump() == reference.dump()
    # The journal is closed either way: later single ops are not recorded.
    assert tree._journal is None
