"""Slab-class memory allocator (memcached style).

Sedna "uses modified Memcached as its local memory storage system"
(§VI).  Memcached's defining allocation strategy is the slab allocator:
memory is carved into fixed-size *pages* (classically 1 MB); each page
is assigned to a *slab class* and split into equal chunks; an item of
``n`` bytes is stored in the smallest class whose chunk size fits it.
Chunk sizes grow geometrically by a configurable factor.

Running inside CPython we obviously do not manage raw memory — the
allocator does the *accounting* (which class an item lands in, when a
class runs out of chunks, when the global memory limit forces eviction)
so that the store's eviction behaviour and memory-pressure dynamics
match the real engine.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SlabClass", "SlabAllocator", "OutOfMemory"]


class OutOfMemory(Exception):
    """No free chunk and no page budget left; caller must evict."""


@dataclass
class SlabClass:
    """One size class: all chunks in its pages have ``chunk_size`` bytes."""

    index: int
    chunk_size: int
    chunks_per_page: int
    pages: int = 0
    used_chunks: int = 0
    free_chunks: int = 0
    # Lifetime counters for the stats command.
    total_allocs: int = 0
    total_frees: int = 0


class SlabAllocator:
    """Accounting slab allocator.

    Parameters
    ----------
    memory_limit:
        Total memory budget in bytes (memcached ``-m``, the paper
        configured 4 GB per Sedna server).
    page_size:
        Page granularity, default 1 MB like memcached.
    min_chunk:
        Smallest chunk size, default 96 bytes.
    growth_factor:
        Geometric chunk-size growth, default 1.25 (memcached ``-f``).
    """

    def __init__(self, memory_limit: int, page_size: int = 1 << 20,
                 min_chunk: int = 96, growth_factor: float = 1.25) -> None:
        if memory_limit < page_size:
            raise ValueError("memory limit smaller than one page")
        if growth_factor <= 1.0:
            raise ValueError("growth factor must exceed 1")
        self.memory_limit = memory_limit
        self.page_size = page_size
        self.classes: list[SlabClass] = []
        size = min_chunk
        idx = 0
        while size < page_size:
            self.classes.append(SlabClass(
                index=idx, chunk_size=size,
                chunks_per_page=page_size // size))
            idx += 1
            size = max(size + 1, int(size * growth_factor))
            # Align like memcached: round up to 8 bytes.
            size = (size + 7) & ~7
        # Final class: one whole page per item.
        self.classes.append(SlabClass(index=idx, chunk_size=page_size,
                                      chunks_per_page=1))
        self.pages_allocated = 0

    @property
    def memory_used(self) -> int:
        """Bytes of pages handed out so far."""
        return self.pages_allocated * self.page_size

    def class_for(self, size: int) -> SlabClass | None:
        """Smallest class whose chunks fit ``size``; None when too large.

        Binary search over the (sorted) chunk sizes.
        """
        if size > self.page_size:
            return None
        lo, hi = 0, len(self.classes) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.classes[mid].chunk_size < size:
                lo = mid + 1
            else:
                hi = mid
        return self.classes[lo]

    def alloc(self, cls: SlabClass) -> None:
        """Take one chunk from ``cls``.

        Grabs a fresh page when the class has no free chunk and budget
        remains; otherwise raises :class:`OutOfMemory` — the store then
        evicts an item *of the same class* (memcached's per-class LRU
        eviction) and retries.
        """
        if cls.free_chunks == 0:
            if (self.pages_allocated + 1) * self.page_size > self.memory_limit:
                raise OutOfMemory(f"class {cls.index} exhausted")
            self.pages_allocated += 1
            cls.pages += 1
            cls.free_chunks += cls.chunks_per_page
        cls.free_chunks -= 1
        cls.used_chunks += 1
        cls.total_allocs += 1

    def free(self, cls: SlabClass) -> None:
        """Return one chunk to ``cls``'s free list."""
        if cls.used_chunks <= 0:
            raise ValueError(f"double free in class {cls.index}")
        cls.used_chunks -= 1
        cls.free_chunks += 1
        cls.total_frees += 1

    def stats(self) -> dict:
        """Per-class and global accounting snapshot."""
        return {
            "memory_limit": self.memory_limit,
            "memory_used": self.memory_used,
            "pages": self.pages_allocated,
            "classes": [
                {
                    "index": c.index,
                    "chunk_size": c.chunk_size,
                    "pages": c.pages,
                    "used_chunks": c.used_chunks,
                    "free_chunks": c.free_chunks,
                }
                for c in self.classes if c.pages > 0
            ],
        }
