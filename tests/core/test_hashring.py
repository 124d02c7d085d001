"""Unit and property tests for the consistent-hash ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashring
from repro.core.hashring import ImbalanceTable, Ring, VnodeStatus
from repro.storage.hashtable import fnv1a


def balanced_ring(num_vnodes=64, nodes=("a", "b", "c", "d")):
    ring = Ring(num_vnodes)
    for v in range(num_vnodes):
        ring.assign(v, nodes[v % len(nodes)])
    return ring


class TestRingBasics:
    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError):
            Ring(0)

    def test_vnode_of_in_range(self):
        ring = Ring(128)
        for i in range(500):
            assert 0 <= ring.vnode_of(f"key-{i}") < 128

    def test_vnode_of_deterministic(self):
        ring = Ring(128)
        assert ring.vnode_of("k") == ring.vnode_of("k")

    def test_hash_spreads_keys(self):
        ring = balanced_ring(num_vnodes=64)
        hits = [0] * 64
        for i in range(6400):
            hits[ring.vnode_of(f"key-{i:06d}")] += 1
        assert max(hits) < 4 * (6400 // 64)

    def test_assign_and_owner(self):
        ring = Ring(8)
        ring.assign(3, "n1")
        assert ring.owner(3) == "n1"
        assert ring.owner(0) == Ring.UNASSIGNED

    def test_vnodes_of_and_unassigned(self):
        ring = Ring(4)
        ring.assign(0, "a")
        ring.assign(2, "a")
        assert ring.vnodes_of("a") == [0, 2]
        assert ring.unassigned() == [1, 3]

    def test_load_counts(self):
        ring = balanced_ring(num_vnodes=8, nodes=("a", "b"))
        assert ring.load_counts() == {"a": 4, "b": 4}

    def test_snapshot_load_roundtrip(self):
        ring = balanced_ring()
        clone = Ring(ring.num_vnodes)
        clone.load(ring.snapshot())
        assert clone.assignment == ring.assignment

    def test_load_length_mismatch(self):
        with pytest.raises(ValueError):
            Ring(4).load(["a"] * 5)


class TestReplicaPlacement:
    def test_replicas_start_with_primary(self):
        ring = balanced_ring()
        for v in range(ring.num_vnodes):
            replicas = ring.replicas_for(v, 3)
            assert replicas[0] == ring.owner(v)

    def test_replicas_distinct(self):
        ring = balanced_ring()
        for v in range(ring.num_vnodes):
            replicas = ring.replicas_for(v, 3)
            assert len(replicas) == len(set(replicas)) == 3

    def test_successor_order(self):
        ring = Ring(6)
        for v, owner in enumerate(["a", "b", "c", "a", "b", "c"]):
            ring.assign(v, owner)
        assert ring.replicas_for(0, 3) == ["a", "b", "c"]
        assert ring.replicas_for(1, 3) == ["b", "c", "a"]

    def test_small_cluster_returns_fewer(self):
        ring = Ring(4)
        ring.assign(0, "only")
        ring.assign(1, "only")
        assert ring.replicas_for(0, 3) == ["only"]

    def test_exclude(self):
        ring = balanced_ring(nodes=("a", "b", "c", "d"))
        replicas = ring.replicas_for(0, 3, exclude=["a"])
        assert "a" not in replicas and len(replicas) == 3

    def test_walk_positions_matches_replicas(self):
        ring = balanced_ring()
        for v in (0, 7, 33):
            owners = [o for _i, o in ring.walk_positions(v, 3)]
            assert owners == ring.replicas_for(v, 3)

    def test_walk_positions_indices_are_owned(self):
        ring = balanced_ring()
        for idx, owner in ring.walk_positions(5, 3):
            assert ring.owner(idx) == owner

    def test_replicas_for_key_consistent(self):
        ring = balanced_ring()
        vnode, replicas = ring.replicas_for_key("some-key", 3)
        assert vnode == ring.vnode_of("some-key")
        assert replicas == ring.replicas_for(vnode, 3)


def walk(assignment, vnode, n, exclude=()):
    """Successor-list placement spelled out (what ``replicas_for``
    computed before it remembered answers)."""
    out = []
    for step in range(len(assignment) + 1):
        owner = assignment[(vnode + step) % len(assignment)]
        if (step == 0 or len(out) < n) and owner and owner not in out \
                and owner not in exclude:
            out.append(owner)
    return out


class TestMemosStayFresh:
    """``replicas_for`` remembers answers per ring and ``vnode_of``
    remembers key hashes process-wide; neither may be observable."""

    def test_assign_invalidates(self):
        ring = balanced_ring(8, ("a", "b", "c"))
        assert ring.replicas_for(0, 3) == ["a", "b", "c"]
        ring.assign(1, "d")
        assert ring.replicas_for(0, 3) == ["a", "d", "c"]
        ring.assign(0, Ring.UNASSIGNED)
        assert ring.replicas_for(0, 3) == ["d", "c", "a"]

    def test_load_invalidates(self):
        ring = balanced_ring(8, ("a", "b", "c"))
        assert ring.replicas_for(2, 2) == ["c", "a"]
        ring.load(["x", "y"] * 4)
        assert ring.replicas_for(2, 2) == ["x", "y"]
        assert ring.replicas_for(2, 3) == ["x", "y"]

    def test_returned_list_is_the_callers(self):
        ring = balanced_ring(8, ("a", "b", "c"))
        for _ in range(3):      # the miss, then two hits
            replicas = ring.replicas_for(0, 3)
            assert replicas == ["a", "b", "c"]
            replicas.remove("a")
            replicas.append("poison")

    def test_each_n_has_its_own_answer(self):
        ring = balanced_ring(8, ("a", "b", "c"))
        assert ring.replicas_for(0, 3) == ["a", "b", "c"]
        assert ring.replicas_for(0, 1) == ["a"]
        assert ring.replicas_for(0, 2) == ["a", "b"]
        assert ring.replicas_for(0, 0) == ["a"]    # r1 whatever n says
        assert ring.replicas_for(0, 3) == ["a", "b", "c"]

    def test_exclude_bypasses_the_memo(self):
        ring = balanced_ring(8, ("a", "b", "c", "d"))
        assert ring.replicas_for(0, 3) == ["a", "b", "c"]
        assert ring.replicas_for(0, 3, exclude=["b"]) == ["a", "c", "d"]
        assert ring.replicas_for(0, 3, exclude={"a"}) == ["b", "c", "d"]
        assert ring.replicas_for(0, 3, exclude=iter(["c"])) == ["a", "b", "d"]
        assert ring.replicas_for(0, 3) == ["a", "b", "c"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(["", "a", "b", "c", "d", "e"]),
                    min_size=1, max_size=12),
           st.lists(st.tuples(st.integers(0, 11),
                              st.sampled_from(["", "a", "b", "f"])),
                    max_size=6),
           st.integers(1, 4),
           st.sets(st.sampled_from(["a", "b", "c"]), max_size=2))
    def test_matches_the_plain_walk_through_reassignments(
            self, owners, moves, n, exclude):
        ring = Ring(len(owners))
        ring.load(owners)

        def check():
            for v in range(ring.num_vnodes):
                for _ in range(2):      # miss, then hit
                    assert ring.replicas_for(v, n) == walk(
                        ring.assignment, v, n)
                assert ring.replicas_for(v, n, exclude) == walk(
                    ring.assignment, v, n, exclude)

        check()
        for vnode, owner in moves:
            ring.assign(vnode % ring.num_vnodes, owner)
            check()

    def test_vnode_of_is_hash_then_mod(self):
        small, large = Ring(7), Ring(512)
        for key in ("plain", "", "ключ", "鍵-42", "k\x00\u00e9", "🔑" * 5):
            h = fnv1a(key.encode("utf-8"))
            for _ in range(2):      # rings of two sizes share one memo
                assert small.vnode_of(key) == h % 7
                assert large.vnode_of(key) == h % 512

    def test_hash_memo_is_bounded(self):
        size = hashring._key_hash.cache_info().maxsize
        assert size is not None
        ring = Ring(512)
        keys = [f"bounded-{i}" for i in range(size + 100)]
        first = [ring.vnode_of(k) for k in keys]
        assert hashring._key_hash.cache_info().currsize == size
        # The oldest keys were evicted; they hash to the same vnode.
        assert [ring.vnode_of(k) for k in keys] == first
        assert first == [fnv1a(k.encode()) % 512 for k in keys]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=5))
def test_replica_invariants(num_vnodes, num_nodes, n):
    """Property: replica sets are duplicate-free, capped by cluster size,
    and led by the primary."""
    ring = Ring(num_vnodes)
    for v in range(num_vnodes):
        ring.assign(v, f"n{v % num_nodes}")
    present = len(set(ring.assignment))
    for v in range(num_vnodes):
        replicas = ring.replicas_for(v, n)
        assert len(replicas) == min(n, present)
        assert len(set(replicas)) == len(replicas)
        assert replicas[0] == ring.owner(v)


class TestImbalanceTable:
    def test_row_from_statuses(self):
        statuses = {0: VnodeStatus(keys=5, reads=10, writes=3),
                    1: VnodeStatus(keys=2, reads=1, writes=1)}
        row = ImbalanceTable.row_from_statuses(statuses)
        assert row == {"vnodes": 2, "keys": 7, "bytes": 0,
                       "reads": 11, "writes": 4}

    def test_most_least_loaded(self):
        table = ImbalanceTable()
        table.update("a", {"vnodes": 10})
        table.update("b", {"vnodes": 2})
        assert table.most_loaded() == "a"
        assert table.least_loaded() == "b"

    def test_empty_table(self):
        table = ImbalanceTable()
        assert table.most_loaded() is None
        assert table.least_loaded() is None
        assert table.spread() == 0.0

    def test_spread(self):
        table = ImbalanceTable()
        table.update("a", {"vnodes": 10})
        table.update("b", {"vnodes": 4})
        assert table.spread() == 6.0

    def test_remove(self):
        table = ImbalanceTable()
        table.update("a", {"vnodes": 1})
        table.remove("a")
        assert table.most_loaded() is None

    def test_tie_broken_deterministically(self):
        table = ImbalanceTable()
        table.update("b", {"vnodes": 5})
        table.update("a", {"vnodes": 5})
        assert table.most_loaded() == "b"
        assert table.least_loaded() == "a"
