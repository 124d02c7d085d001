"""Unit tests for the memcached-clone MemStore."""

import pytest

from repro.storage.memstore import MemStore, StoreResult


@pytest.fixture
def store():
    return MemStore(memory_limit=4 << 20)


class TestBasicCommands:
    def test_set_get(self, store):
        assert store.set(b"k", b"v") == StoreResult.STORED
        assert store.get(b"k") == b"v"

    def test_get_missing(self, store):
        assert store.get(b"nope") is None

    def test_set_overwrites(self, store):
        store.set(b"k", b"v1")
        store.set(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_delete(self, store):
        store.set(b"k", b"v")
        assert store.delete(b"k") == StoreResult.DELETED
        assert store.delete(b"k") == StoreResult.NOT_FOUND
        assert store.get(b"k") is None

    def test_get_many(self, store):
        store.set(b"a", b"1")
        store.set(b"b", b"2")
        assert store.get_many([b"a", b"b", b"c"]) == {b"a": b"1", b"b": b"2"}

    def test_get_multi_skips_misses(self, store):
        # Deleted keys are misses too, not just keys never set.
        store.set(b"a", b"1")
        store.set(b"b", b"2")
        store.delete(b"b")
        assert store.get_many([b"a", b"b", b"ghost"]) == {b"a": b"1"}

    def test_set_multi_one_result_per_key(self, store):
        results = store.set_multi({b"a": b"1", b"b": b"2"})
        assert results == {b"a": StoreResult.STORED,
                           b"b": StoreResult.STORED}
        assert store.get(b"a") == b"1"
        assert store.get(b"b") == b"2"

    def test_contains_len(self, store):
        store.set(b"a", b"1")
        assert b"a" in store and b"b" not in store
        assert len(store) == 1

    def test_too_large_value_rejected(self, store):
        huge = b"x" * (2 << 20)
        assert store.set(b"k", huge) == StoreResult.TOO_LARGE


class TestEviction:
    def test_lru_eviction_under_pressure(self):
        store = MemStore(memory_limit=1 << 20)  # one page
        value = b"x" * 900
        cls = store.slabs.class_for(len(b"k0000") + len(value) + 48)
        capacity = cls.chunks_per_page
        keys = [f"k{i:04d}".encode() for i in range(capacity + 10)]
        for k in keys:
            assert store.set(k, value) == StoreResult.STORED
        assert store.evictions == 10
        # The earliest keys are the evicted ones.
        assert store.get(keys[0]) is None
        assert store.get(keys[-1]) == value

    def test_get_protects_from_eviction(self):
        store = MemStore(memory_limit=1 << 20)
        value = b"x" * 900
        cls = store.slabs.class_for(5 + len(value) + 48)
        capacity = cls.chunks_per_page
        keys = [f"k{i:04d}".encode() for i in range(capacity)]
        for k in keys:
            store.set(k, value)
        # Touch the oldest key, then overflow by one.
        store.get(keys[0])
        store.set(b"overflow", value)
        assert store.get(keys[0]) == value, "recently read key must survive"
        assert store.get(keys[1]) is None, "the true LRU key is evicted"

    def test_delete_frees_chunk_for_reuse(self):
        store = MemStore(memory_limit=1 << 20)
        value = b"x" * 900
        cls = store.slabs.class_for(5 + len(value) + 48)
        for i in range(cls.chunks_per_page):
            store.set(f"k{i:04d}".encode(), value)
        store.delete(b"k0000")
        store.set(b"fresh", value)
        assert store.evictions == 0

