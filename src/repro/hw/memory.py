"""Physical memory and frame allocation.

The machine's DRAM is a single lazily zeroed anonymous mmap.  A bitmap-free
free-list frame allocator hands out 4 KB frames; relay segments additionally
need physically *contiguous* ranges (paper §3.3: "a memory region backed with
continuous physical memory"), served by :meth:`FrameAllocator.alloc_contiguous`.
The same page store backs device RAM: the file-system chains' ramdisk
(:class:`~repro.services.fs.blockdev.RamDisk`) is a :class:`PhysicalMemory`
of its own with every frame allocated.

Snapshots (:mod:`repro.snap`) deepcopy the whole machine; copying 32–256 MB
of DRAM per checkpoint would sink record/replay, so :class:`PhysicalMemory`
implements its own copy-on-write protocol.  A *live* memory deepcopies into
a *dormant* page table (``_data is None``) holding only the non-zero pages.
The first checkpoint reads only the allocated frames (free frames read
zero), so it costs in proportion to what the memory holds, not its size;
later checkpoints re-extract only the pages dirtied since, and clean pages
are shared (same immutable ``bytes`` objects) with the previous checkpoint.
Deepcopying a dormant memory materializes a fresh live buffer — that is
what restore does.

Fixed-layout records (ring headers, queue entries) are read and written
in place with :meth:`PhysicalMemory.unpack_from` and
:meth:`PhysicalMemory.pack_into`: one ``struct.Struct`` access, no
intermediate ``bytes``, and the same bounds, dormancy and dirty-frame
handling as :meth:`~PhysicalMemory.read`/:meth:`~PhysicalMemory.write`.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import mmap
import struct
from typing import Dict, Iterator, List, Optional, Set

PAGE_SIZE = 4096
PAGE_SHIFT = 12

_ZERO_PAGE = bytes(PAGE_SIZE)


def _fresh_dram(size: int) -> mmap.mmap:
    """A zeroed *size*-byte buffer backed by anonymous mmap.

    The kernel hands out lazily-zeroed pages, so this is O(1) instead
    of the ~20 ms memset a ``bytearray(32 MB)`` costs — which matters
    because every snapshot restore materializes a fresh DRAM buffer.
    The mmap object supports the same slice reads/writes the simulator
    uses, and slice assignment is stricter (length must match), never
    looser, than a bytearray's.
    """
    return mmap.mmap(-1, size)


class OutOfMemoryError(MemoryError):
    """Raised when the frame allocator cannot satisfy a request."""


class FrameAllocator:
    """First-fit allocator over physical frames.

    Keeps a sorted list of free ``(start_frame, nframes)`` extents so that
    contiguous allocation (needed by relay segments) is first-fit over
    extents, and single-frame allocation just peels off the first extent.
    """

    __snap_state__ = ("total_frames", "_extents", "allocated")

    def __init__(self, total_frames: int, reserved_frames: int = 0) -> None:
        if reserved_frames >= total_frames:
            raise ValueError("reserved frames exceed physical memory")
        self.total_frames = total_frames
        self._extents: List[List[int]] = [
            [reserved_frames, total_frames - reserved_frames]
        ]
        self.allocated = 0

    @property
    def free_frames(self) -> int:
        return sum(n for _, n in self._extents)

    def alloc(self) -> int:
        """Allocate one frame; return its frame number."""
        return self.alloc_contiguous(1)

    def alloc_contiguous(self, nframes: int) -> int:
        """Allocate *nframes* physically contiguous frames (first fit)."""
        if nframes <= 0:
            raise ValueError("nframes must be positive")
        for extent in self._extents:
            start, size = extent
            if size >= nframes:
                extent[0] = start + nframes
                extent[1] = size - nframes
                if extent[1] == 0:
                    self._extents.remove(extent)
                self.allocated += nframes
                return start
        raise OutOfMemoryError(
            f"no contiguous run of {nframes} frames "
            f"({self.free_frames} free in {len(self._extents)} extents)"
        )

    def alloc_run(self, nframes: int) -> List[int]:
        """The frames *nframes* successive :meth:`alloc` calls would
        return, in that order, taken in one call.

        Each :meth:`alloc` peels the first extent, so the run is the
        head of the free list, spilling into the next extents when the
        first is too short.  All or nothing: on a shortfall it raises
        before taking a frame.
        """
        if nframes <= 0:
            raise ValueError("nframes must be positive")
        extents = self._extents
        whole = 0           # leading extents the run uses up
        short = nframes     # frames still wanted after them
        while whole < len(extents) and extents[whole][1] <= short:
            short -= extents[whole][1]
            whole += 1
        if short and whole == len(extents):
            raise OutOfMemoryError(
                f"no {nframes} free frames "
                f"({self.free_frames} free in {len(extents)} extents)")
        frames: List[int] = []
        for start, size in extents[:whole]:
            frames.extend(range(start, start + size))
        del extents[:whole]
        if short:
            head = extents[0]
            frames.extend(range(head[0], head[0] + short))
            head[0] += short
            head[1] -= short
        self.allocated += nframes
        return frames

    def free(self, start_frame: int, nframes: int = 1) -> None:
        """Return frames to the free list, coalescing neighbours."""
        if nframes <= 0:
            raise ValueError("nframes must be positive")
        end = start_frame + nframes
        for s, n in self._extents:
            if start_frame < s + n and s < end:
                raise ValueError(
                    f"double free of frames [{start_frame}, {end})"
                )
        self._extents.append([start_frame, nframes])
        self._extents.sort()
        merged: List[List[int]] = []
        for ext in self._extents:
            if merged and merged[-1][0] + merged[-1][1] == ext[0]:
                merged[-1][1] += ext[1]
            else:
                merged.append(ext)
        self._extents = merged
        self.allocated -= nframes


class PhysicalMemory:
    """Byte-addressable DRAM plus its frame allocator."""

    __snap_state__ = ("size", "_data", "allocator", "asids",
                      "_snap_pages", "_snap_dirty")

    def __init__(self, size: int = 256 * 1024 * 1024,
                 reserved_bytes: int = PAGE_SIZE) -> None:
        if size % PAGE_SIZE:
            raise ValueError("memory size must be page aligned")
        self.size = size
        self._data: Optional[mmap.mmap] = _fresh_dram(size)
        self.allocator = FrameAllocator(
            size // PAGE_SIZE, reserved_bytes // PAGE_SIZE
        )
        #: ASIDs of the address spaces built on this memory: scoped to
        #: the machine, like the tagged TLBs that match on them.
        self.asids = itertools.count(1)
        #: COW page cache: frame -> immutable 4 KB ``bytes``, shared
        #: with the snapshots taken off this memory.  Zero pages are
        #: never cached (absence means all-zero).
        self._snap_pages: Dict[int, bytes] = {}
        #: Frames written since the last page sync.  ``None`` means no
        #: snapshot was ever taken: tracking is off and writes cost
        #: nothing extra; the first sync reads every allocated frame
        #: once (free frames read zero, so it skips them).
        self._snap_dirty: Optional[Set[int]] = None

    # -- raw access (no timing; timing is charged by the Core) ----------
    # read/write and the record accessors test bounds and dormancy
    # inline (one frame per DRAM access) and call _check only to raise
    # its message.
    def read(self, pa: int, n: int) -> bytes:
        data = self._data
        if data is None or pa < 0 or n < 0 or pa + n > self.size:
            self._check(pa, n)
        return bytes(data[pa:pa + n])

    def write(self, pa: int, data: bytes) -> None:
        n = len(data)
        dram = self._data
        if dram is None or pa < 0 or pa + n > self.size:
            self._check(pa, n)
        dram[pa:pa + n] = data
        if self._snap_dirty is not None and n:
            self._touch(pa, n)

    def unpack_from(self, st: struct.Struct, pa: int) -> tuple:
        """The ``st`` record at *pa*, unpacked in place (the values
        ``st.unpack(self.read(pa, st.size))`` returns)."""
        data = self._data
        if data is None or pa < 0 or pa + st.size > self.size:
            self._check(pa, st.size)
        return st.unpack_from(data, pa)

    def pack_into(self, st: struct.Struct, pa: int, *values) -> None:
        """Store *values* as the ``st`` record at *pa*, packed in place
        (the bytes ``self.write(pa, st.pack(*values))`` stores).

        Out-of-range and dormant accesses raise before any byte moves.
        A value the record cannot hold raises ``struct.error`` and may
        leave the record partly written, so the frames are marked dirty
        first and callers pack values they have already bounded (ring
        indices and offsets)."""
        n = st.size
        dram = self._data
        if dram is None or pa < 0 or pa + n > self.size:
            self._check(pa, n)
        if self._snap_dirty is not None and n:
            self._touch(pa, n)
        st.pack_into(dram, pa, *values)

    def copy(self, dst_pa: int, src_pa: int, n: int) -> None:
        """Physical memmove (used by kernels and DMA models)."""
        self._check(src_pa, n)
        self._check(dst_pa, n)
        self._data[dst_pa:dst_pa + n] = self._data[src_pa:src_pa + n]
        if self._snap_dirty is not None and n:
            self._touch(dst_pa, n)

    def fill(self, pa: int, n: int, byte: int = 0) -> None:
        self._check(pa, n)
        self._data[pa:pa + n] = bytes([byte]) * n
        if self._snap_dirty is not None and n:
            self._touch(pa, n)

    def _check(self, pa: int, n: int) -> None:
        if self._data is None:
            raise RuntimeError(
                "dormant snapshot memory is not accessible — deepcopy "
                "the snapshot graph (repro.snap.restore) to revive it")
        if pa < 0 or n < 0 or pa + n > self.size:
            raise IndexError(f"physical access [{pa:#x}, +{n}) out of range")

    def _touch(self, pa: int, n: int) -> None:
        self._snap_dirty.update(
            range(pa >> PAGE_SHIFT, ((pa + n - 1) >> PAGE_SHIFT) + 1))

    # -- snapshot protocol (repro.snap) ---------------------------------
    @property
    def dormant(self) -> bool:
        """True for the page-table form living inside a snapshot."""
        return self._data is None

    def _sync_pages(self) -> None:
        """Fold dirty frames into the COW page cache (live side only)."""
        dirty = (self._allocated_frames() if self._snap_dirty is None
                 else self._snap_dirty)
        data = self._data
        for frame in dirty:
            off = frame << PAGE_SHIFT
            page = bytes(data[off:off + PAGE_SIZE])
            if page == _ZERO_PAGE:
                self._snap_pages.pop(frame, None)
            else:
                self._snap_pages[frame] = page
        self._snap_dirty = set()

    def _allocated_frames(self) -> Iterator[int]:
        """Every frame not on the allocator's free list, ascending."""
        frame = 0
        for start, n in self.allocator._extents:
            yield from range(frame, start)
            frame = start + n
        yield from range(frame, self.allocator.total_frames)

    def __deepcopy__(self, memo: dict) -> "PhysicalMemory":
        dup = PhysicalMemory.__new__(PhysicalMemory)
        memo[id(self)] = dup
        dup.size = self.size
        dup.allocator = copy.deepcopy(self.allocator, memo)
        dup.asids = copy.deepcopy(self.asids, memo)
        if self._data is None:
            # Dormant -> live: materialize the pages (restore path).
            data = _fresh_dram(self.size)
            for frame, page in self._snap_pages.items():
                off = frame << PAGE_SHIFT
                data[off:off + PAGE_SIZE] = page
            dup._data = data
            # The revived memory starts with the snapshot's page cache,
            # so its own next checkpoint shares the unchanged pages.
            dup._snap_pages = dict(self._snap_pages)
            dup._snap_dirty = set()
        else:
            # Live -> dormant: re-extract only the dirty frames; clean
            # pages are the same bytes objects the last snapshot holds.
            self._sync_pages()
            dup._data = None
            dup._snap_pages = dict(self._snap_pages)
            dup._snap_dirty = None
        return dup

    def snap_page_table(self) -> Dict[int, bytes]:
        """The COW page view (synced first when live): frame -> bytes."""
        if self._data is not None:
            self._sync_pages()
        return dict(self._snap_pages)

    def __snap_fingerprint__(self):
        """Canonical content identity for :mod:`repro.snap.fingerprint`:
        the sorted non-zero page digests plus allocator and ASID state,
        identical whether the memory is live or dormant."""
        pages = tuple(
            (frame, hashlib.sha256(page).hexdigest())
            for frame, page in sorted(self.snap_page_table().items()))
        alloc = self.allocator
        return ("PhysicalMemory", self.size, pages, alloc.total_frames,
                alloc.allocated, tuple(tuple(e) for e in alloc._extents),
                self.asids)

    # -- allocation ------------------------------------------------------
    # Invariant: every frame on the free list reads zero.  DRAM starts
    # zeroed (anonymous mmap) and the free paths zero what they return,
    # so allocation never has to fill — and never faults in host pages
    # nobody writes.

    def alloc_page(self) -> int:
        """Allocate one zeroed page; return its physical address.

        Zeroed because free frames read zero (see the invariant above),
        not because this fills it."""
        return self.allocator.alloc() << PAGE_SHIFT

    def alloc_frames(self, nframes: int) -> List[int]:
        """Allocate *nframes* zeroed pages in one call; return their
        frame numbers — the frames that many :meth:`alloc_page` calls
        would return, in the same order (zeroed by the same invariant)."""
        return self.allocator.alloc_run(nframes)

    def alloc_contiguous(self, nbytes: int) -> int:
        """Allocate a zeroed, physically contiguous, page-aligned range
        (zeroed by the same invariant as :meth:`alloc_page`)."""
        nframes = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        return self.allocator.alloc_contiguous(nframes) << PAGE_SHIFT

    def free_page(self, pa: int) -> None:
        self.free_contiguous(pa, PAGE_SIZE)

    def free_contiguous(self, pa: int, nbytes: int) -> None:
        """Return the frames and zero them (the allocator rejects a
        double free first, so a live frame is never scrubbed)."""
        frame = pa >> PAGE_SHIFT
        nframes = (nbytes + PAGE_SIZE - 1) // PAGE_SIZE
        self.allocator.free(frame, nframes)
        self.fill(frame << PAGE_SHIFT, nframes * PAGE_SIZE)
