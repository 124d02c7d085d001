"""MemStore — the memcached-style in-memory store of the Fig. 7 baseline.

Each server of the memcached baseline (``repro.baselines``) holds one
MemStore: a slab allocator, a chained hash table and one LRU list per
slab class, under a byte budget.  It offers what the baselines run:
``set`` and ``get``.

A set that finds no free chunk in its slab class evicts that class's
least recently used item (memcached's per-class LRU eviction); a get
marks the item as just used.
"""

from __future__ import annotations

from typing import Optional

from .hashtable import HashTable
from .lru import LruList, LruNode
from .slab import OutOfMemory, SlabAllocator, SlabClass

__all__ = ["Item", "MemStore", "StoreResult"]

# Result vocabulary mirroring the memcached protocol replies.
class StoreResult:
    """String constants used as command outcomes."""

    STORED = "STORED"
    TOO_LARGE = "SERVER_ERROR object too large"


ITEM_OVERHEAD = 48  # bytes of per-item metadata, matching memcached's order


class Item:
    """A stored item: value bytes plus its slab and LRU bookkeeping."""

    __slots__ = ("key", "value", "slab_class", "lru_node")

    def __init__(self, key: bytes, value: bytes,
                 slab_class: SlabClass) -> None:
        self.key = key
        self.value = value
        self.slab_class = slab_class
        self.lru_node = LruNode(self)


class MemStore:
    """One memcached-style storage engine instance.

    Parameters
    ----------
    memory_limit:
        Byte budget (paper: 4 GB per non-ZooKeeper server).
    """

    def __init__(self, memory_limit: int = 64 << 20) -> None:
        self.slabs = SlabAllocator(memory_limit)
        self.table = HashTable(initial_power=6)
        self._lrus: dict[int, LruList] = {}
        self.evictions = 0

    # -- internals ----------------------------------------------------------
    def _lru(self, cls: SlabClass) -> LruList:
        lru = self._lrus.get(cls.index)
        if lru is None:
            lru = LruList()
            self._lrus[cls.index] = lru
        return lru

    def _unlink(self, item: Item) -> None:
        self.table.remove(item.key)
        self._lru(item.slab_class).unlink(item.lru_node)
        self.slabs.free(item.slab_class)

    def _evict_one(self, cls: SlabClass) -> bool:
        """Evict the LRU item of ``cls``; returns False when none exist."""
        node = self._lru(cls).pop_back()
        if node is None:
            return False
        victim: Item = node.item
        self.table.remove(victim.key)
        self.slabs.free(victim.slab_class)
        self.evictions += 1
        return True

    # -- commands -------------------------------------------------------------
    def set(self, key: bytes, value: bytes) -> str:
        """Unconditionally store."""
        size = len(key) + len(value) + ITEM_OVERHEAD
        cls = self.slabs.class_for(size)
        if cls is None:
            return StoreResult.TOO_LARGE
        old = self.table.get(key)
        if old is not None:
            self._unlink(old)
        while True:
            try:
                self.slabs.alloc(cls)
                break
            except OutOfMemory:
                if not self._evict_one(cls):
                    return StoreResult.TOO_LARGE
        item = Item(key, value, cls)
        self._lru(cls).push_front(item.lru_node)
        self.table.put(key, item)
        return StoreResult.STORED

    def get(self, key: bytes) -> Optional[bytes]:
        """Value bytes, or None on a miss; a hit marks the item as used."""
        item = self.table.get(key)
        if item is None:
            return None
        self._lru(item.slab_class).touch(item.lru_node)
        return item.value

    def __len__(self) -> int:
        return len(self.table)

    def __contains__(self, key: bytes) -> bool:
        return self.table.get(key) is not None
