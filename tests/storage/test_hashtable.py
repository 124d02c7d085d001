"""Unit and property tests for the incremental-rehash hash table."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.hashtable import HashTable, fnv1a


class TestFnv1a:
    def test_known_vectors(self):
        # FNV-1a 64-bit reference values.
        assert fnv1a(b"") == 0xCBF29CE484222325
        assert fnv1a(b"a") == 0xAF63DC4C8601EC8C
        assert fnv1a(b"foobar") == 0x85944171F73967E8

    def test_distribution_rough(self):
        buckets = [0] * 64
        for i in range(4096):
            buckets[fnv1a(f"key-{i}".encode()) % 64] += 1
        assert max(buckets) < 3 * (4096 // 64)


class TestHashTable:
    def test_put_get(self):
        ht = HashTable()
        assert ht.put(b"k", 1) is True
        assert ht.get(b"k") == 1

    def test_put_overwrite(self):
        ht = HashTable()
        ht.put(b"k", 1)
        assert ht.put(b"k", 2) is False
        assert ht.get(b"k") == 2
        assert len(ht) == 1

    def test_get_missing_default(self):
        ht = HashTable()
        assert ht.get(b"missing") is None
        assert ht.get(b"missing", "d") == "d"

    def test_remove(self):
        ht = HashTable()
        ht.put(b"k", 1)
        assert ht.remove(b"k") == 1
        assert ht.get(b"k") is None
        assert len(ht) == 0

    def test_remove_missing(self):
        assert HashTable().remove(b"nope") is None

    def test_contains(self):
        ht = HashTable()
        ht.put(b"k", 1)
        assert b"k" in ht and b"j" not in ht

    def test_expansion_triggered(self):
        ht = HashTable(initial_power=2, max_load=1.0)
        for i in range(20):
            ht.put(f"k{i}".encode(), i)
        assert len(ht._buckets) > 4

    def test_all_readable_during_expansion(self):
        ht = HashTable(initial_power=2, max_load=1.0, migrate_per_op=1)
        keys = [f"k{i}".encode() for i in range(50)]
        for i, k in enumerate(keys):
            ht.put(k, i)
            # every key inserted so far must stay readable mid-migration
            for j in range(i + 1):
                assert ht.get(keys[j]) == j, f"lost {keys[j]} at step {i}"

    def test_migration_completes(self):
        ht = HashTable(initial_power=2, max_load=1.0, migrate_per_op=4)
        for i in range(30):
            ht.put(f"k{i}".encode(), i)
        # Drive operations until migration finishes.
        for _ in range(200):
            ht.get(b"k0")
        assert ht._old is None, "the old bucket array is released"

    def test_items_iterates_everything(self):
        ht = HashTable(initial_power=2, migrate_per_op=1)
        expected = {f"k{i}".encode(): i for i in range(40)}
        for k, v in expected.items():
            ht.put(k, v)
        assert dict(ht.items()) == expected

    def test_remove_during_expansion(self):
        ht = HashTable(initial_power=2, max_load=1.0, migrate_per_op=1)
        keys = [f"k{i}".encode() for i in range(30)]
        for i, k in enumerate(keys):
            ht.put(k, i)
        for k in keys[::3]:
            assert ht.remove(k) is not None
        survivors = {k for i, k in enumerate(keys) if i % 3 != 0}
        assert set(dict(ht.items())) == survivors


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["put", "remove", "get"]),
        st.binary(min_size=0, max_size=8),
        st.integers(),
    ),
    max_size=300,
))
def test_hashtable_matches_dict_model(ops):
    """Property: the table behaves exactly like a dict under any op mix."""
    ht = HashTable(initial_power=2, max_load=1.0, migrate_per_op=1)
    model: dict = {}
    for op, key, value in ops:
        if op == "put":
            assert ht.put(key, value) == (key not in model)
            model[key] = value
        elif op == "remove":
            assert ht.remove(key) == model.pop(key, None)
        else:
            assert ht.get(key) == model.get(key)
        assert len(ht) == len(model)
    assert dict(ht.items()) == model
