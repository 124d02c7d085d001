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

    def test_overwrite_frees_chunk_for_reuse(self):
        """An overwrite frees the old item's chunk before it allocates,
        so rewriting a key in a full class evicts nothing."""
        store = MemStore(memory_limit=1 << 20)
        value = b"x" * 900
        cls = store.slabs.class_for(5 + len(value) + 48)
        for i in range(cls.chunks_per_page):
            store.set(f"k{i:04d}".encode(), value)
        assert store.set(b"k0000", b"y" * 900) == StoreResult.STORED
        assert store.evictions == 0
        assert store.get(b"k0000") == b"y" * 900
        assert len(store) == cls.chunks_per_page

