"""Local storage engines: the memcached clone and Sedna's extensions.

* :class:`MemStore` — slab allocator + chained hash table + per-class
  LRU behind set/get/delete and their batch forms.  The Fig. 7
  baseline engine (``repro.baselines``) only: no Sedna node holds one.
* :class:`VersionedStore` — timestamped value lists with the Dirty and
  Monitors columns that back ``write_latest``/``write_all`` and the
  trigger subsystem.  This, over a plain dict, is the node's store.
"""

from .slab import OutOfMemory, SlabAllocator, SlabClass
from .lru import LruList, LruNode
from .hashtable import HashTable, fnv1a
from .memstore import Item, MemStore, StoreResult
from .versioned import Row, ValueElement, VersionedStore, WriteOutcome

__all__ = [
    "OutOfMemory", "SlabAllocator", "SlabClass",
    "LruList", "LruNode",
    "HashTable", "fnv1a",
    "Item", "MemStore", "StoreResult",
    "Row", "ValueElement", "VersionedStore", "WriteOutcome",
]
