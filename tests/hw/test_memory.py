"""Physical memory and the frame allocator."""

import pytest

from repro.hw.memory import (
    FrameAllocator, OutOfMemoryError, PAGE_SIZE, PhysicalMemory,
)


class TestFrameAllocator:
    def test_alloc_returns_distinct_frames(self):
        alloc = FrameAllocator(16)
        frames = {alloc.alloc() for _ in range(16)}
        assert len(frames) == 16

    def test_exhaustion_raises(self):
        alloc = FrameAllocator(4)
        for _ in range(4):
            alloc.alloc()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc()

    def test_free_allows_reuse(self):
        alloc = FrameAllocator(2)
        a = alloc.alloc()
        alloc.alloc()
        alloc.free(a)
        assert alloc.alloc() == a

    def test_contiguous_run(self):
        alloc = FrameAllocator(64)
        start = alloc.alloc_contiguous(16)
        other = alloc.alloc_contiguous(8)
        assert other >= start + 16 or other + 8 <= start

    def test_contiguous_fails_when_fragmented(self):
        alloc = FrameAllocator(8)
        frames = [alloc.alloc() for _ in range(8)]
        for f in frames[::2]:
            alloc.free(f)  # only every other frame is free
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_contiguous(2)

    def test_coalescing_restores_contiguity(self):
        alloc = FrameAllocator(8)
        frames = [alloc.alloc() for _ in range(8)]
        for f in frames:
            alloc.free(f)
        assert alloc.alloc_contiguous(8) == frames[0]

    def test_double_free_rejected(self):
        alloc = FrameAllocator(4)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(ValueError):
            alloc.free(frame)

    def test_partial_overlap_free_rejected(self):
        alloc = FrameAllocator(16)
        start = alloc.alloc_contiguous(4)
        alloc.free(start, 4)
        with pytest.raises(ValueError):
            alloc.free(start + 2, 4)

    def test_reserved_frames_never_handed_out(self):
        alloc = FrameAllocator(8, reserved_frames=2)
        frames = {alloc.alloc() for _ in range(6)}
        assert min(frames) >= 2
        with pytest.raises(OutOfMemoryError):
            alloc.alloc()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9, 12])
    def test_run_is_what_successive_allocs_return(self, n):
        twins = []
        for _ in range(2):
            alloc = FrameAllocator(32)
            frames = [alloc.alloc() for _ in range(12)]
            for index in (1, 3, 4, 7, 8, 9):   # extents of 1, 2 and 3
                alloc.free(frames[index])
            twins.append(alloc)
        run, one_by_one = twins
        assert run.alloc_run(n) == [one_by_one.alloc() for _ in range(n)]
        assert run._extents == one_by_one._extents
        assert run.allocated == one_by_one.allocated

    def test_run_is_all_or_nothing(self):
        alloc = FrameAllocator(8)
        held = [alloc.alloc() for _ in range(6)]
        alloc.free(held[2])
        extents = [list(e) for e in alloc._extents]
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_run(4)
        assert alloc._extents == extents
        assert alloc.allocated == 5
        assert alloc.alloc_run(3) == [held[2], 6, 7]
        assert alloc._extents == []
        with pytest.raises(ValueError):
            alloc.alloc_run(0)

    def test_free_frames_accounting(self):
        alloc = FrameAllocator(10)
        assert alloc.free_frames == 10
        alloc.alloc_contiguous(3)
        assert alloc.free_frames == 7

    def test_bad_sizes_rejected(self):
        alloc = FrameAllocator(4)
        with pytest.raises(ValueError):
            alloc.alloc_contiguous(0)
        with pytest.raises(ValueError):
            alloc.free(0, 0)


class TestPhysicalMemory:
    def test_read_back_what_was_written(self):
        mem = PhysicalMemory(1024 * 1024)
        mem.write(4096, b"hello world")
        assert mem.read(4096, 11) == b"hello world"

    def test_out_of_range_access_raises(self):
        mem = PhysicalMemory(1024 * 1024)
        with pytest.raises(IndexError):
            mem.read(1024 * 1024 - 4, 8)
        with pytest.raises(IndexError):
            mem.write(-1, b"x")

    def test_copy_moves_bytes(self):
        mem = PhysicalMemory(1024 * 1024)
        mem.write(0x1000, b"abc123")
        mem.copy(0x2000, 0x1000, 6)
        assert mem.read(0x2000, 6) == b"abc123"

    def test_alloc_page_is_zeroed(self):
        mem = PhysicalMemory(1024 * 1024)
        pa = mem.alloc_page()
        mem.write(pa, b"\xff" * PAGE_SIZE)
        mem.free_page(pa)
        pa2 = mem.alloc_page()
        assert pa2 == pa
        assert mem.read(pa2, PAGE_SIZE) == b"\x00" * PAGE_SIZE

    def test_alloc_contiguous_page_aligned(self):
        mem = PhysicalMemory(1024 * 1024)
        pa = mem.alloc_contiguous(3 * PAGE_SIZE + 1)
        assert pa % PAGE_SIZE == 0
        mem.write(pa, b"\x01" * (4 * PAGE_SIZE))  # rounded up to 4 pages

    def test_unaligned_size_rejected(self):
        with pytest.raises(ValueError):
            PhysicalMemory(12345)

    def test_fill(self):
        mem = PhysicalMemory(1024 * 1024)
        mem.fill(0x3000, 16, 0xAB)
        assert mem.read(0x3000, 16) == b"\xab" * 16
