"""Unit tests for the slab allocator."""

import pytest

from repro.storage.slab import OutOfMemory, SlabAllocator


class TestClassLayout:
    def test_chunk_sizes_grow_geometrically(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        sizes = [c.chunk_size for c in alloc.classes]
        assert sizes == sorted(sizes)
        assert sizes[0] == 96
        assert sizes[-1] == alloc.page_size
        for a, b in zip(sizes, sizes[1:-1]):
            assert b <= int(a * 1.25) + 8

    def test_chunk_sizes_aligned(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        for c in alloc.classes[:-1]:
            assert c.chunk_size % 8 == 0

    def test_class_for_picks_smallest_fit(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        for size in (1, 96, 97, 1000, 10_000, alloc.page_size):
            cls = alloc.class_for(size)
            assert cls.chunk_size >= size
            if cls.index > 0:
                assert alloc.classes[cls.index - 1].chunk_size < size

    def test_class_for_oversized_returns_none(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        assert alloc.class_for(alloc.page_size + 1) is None

    def test_rejects_tiny_memory_limit(self):
        with pytest.raises(ValueError):
            SlabAllocator(memory_limit=100)

    def test_rejects_bad_growth(self):
        with pytest.raises(ValueError):
            SlabAllocator(memory_limit=1 << 22, growth_factor=1.0)


class TestAllocFree:
    def test_alloc_carves_page(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        cls = alloc.class_for(100)
        alloc.alloc(cls)
        assert alloc.pages_allocated == 1
        assert cls.used_chunks == 1
        assert cls.free_chunks == cls.chunks_per_page - 1

    def test_allocs_fill_page_before_new_page(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        cls = alloc.class_for(100)
        for _ in range(cls.chunks_per_page):
            alloc.alloc(cls)
        assert alloc.pages_allocated == 1
        alloc.alloc(cls)
        assert alloc.pages_allocated == 2

    def test_free_returns_chunk(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        cls = alloc.class_for(100)
        alloc.alloc(cls)
        alloc.free(cls)
        assert cls.used_chunks == 0
        assert cls.free_chunks == cls.chunks_per_page

    def test_double_free_rejected(self):
        alloc = SlabAllocator(memory_limit=1 << 22)
        cls = alloc.class_for(100)
        with pytest.raises(ValueError):
            alloc.free(cls)

    def test_out_of_memory(self):
        alloc = SlabAllocator(memory_limit=1 << 20)  # exactly one page
        cls = alloc.class_for(100)
        for _ in range(cls.chunks_per_page):
            alloc.alloc(cls)
        with pytest.raises(OutOfMemory):
            alloc.alloc(cls)

    def test_memory_limit_shared_across_classes(self):
        alloc = SlabAllocator(memory_limit=1 << 20)
        small = alloc.class_for(100)
        big = alloc.class_for(10_000)
        alloc.alloc(small)  # takes the only page
        with pytest.raises(OutOfMemory):
            alloc.alloc(big)

    def test_freed_chunks_reusable_after_oom(self):
        alloc = SlabAllocator(memory_limit=1 << 20)
        cls = alloc.class_for(100)
        for _ in range(cls.chunks_per_page):
            alloc.alloc(cls)
        alloc.free(cls)
        alloc.alloc(cls)  # must not raise
        assert cls.free_chunks == 0
