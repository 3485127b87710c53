"""Sv39-style three-level page tables and address spaces.

The radix tree is materialized in real physical pages: each level is a
512-entry table of 8-byte PTEs living in a frame of
:class:`~repro.hw.memory.PhysicalMemory`, exactly as a hardware walker would
see it.  The walker counts one memory access per level so page-walk latency
is charged faithfully by the core.
"""

from __future__ import annotations

import enum
import struct
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

PTE_SIZE = 8
ENTRIES_PER_TABLE = PAGE_SIZE // PTE_SIZE  # 512
LEVELS = 3
VPN_BITS = 9
_INDEX_MASK = ENTRIES_PER_TABLE - 1
_L2_SHIFT = PAGE_SHIFT + VPN_BITS  # VA bits above one L2 table's span


class PagePerm(enum.IntFlag):
    """PTE permission bits (RISC-V style R/W/X/U)."""

    NONE = 0
    R = 1
    W = 2
    X = 4
    U = 8
    RW = R | W
    RX = R | X
    RWX = R | W | X


#: :meth:`PageTable.map_pages` bases: a fresh frame per page, or one
#: fresh physically contiguous block.
FRESH = -1
FRESH_CONTIGUOUS = -2

_PTE_VALID = 1 << 0
_PERM_SHIFT = 1
_PPN_SHIFT = 10


class PageFault(Exception):
    """Raised on translation failure; the kernel handles it."""

    def __init__(self, va: int, access: PagePerm, message: str = "") -> None:
        self.va = va
        self.access = access
        super().__init__(
            message or f"page fault at {va:#x} ({access.name} access)"
        )


def _vpn_parts(va: int) -> Tuple[int, int, int]:
    vpn = va >> PAGE_SHIFT
    return (
        (vpn >> (2 * VPN_BITS)) & (ENTRIES_PER_TABLE - 1),
        (vpn >> VPN_BITS) & (ENTRIES_PER_TABLE - 1),
        vpn & (ENTRIES_PER_TABLE - 1),
    )


class PageTable:
    """A three-level radix page table rooted in one physical frame."""

    def __init__(self, mem: PhysicalMemory) -> None:
        self.mem = mem
        self.root_pa = mem.alloc_page()
        self._owned_tables = [self.root_pa]
        self.mapped_pages = 0
        #: Host-side walk cache for :meth:`map`: ``(i0, i1)`` -> the L2
        #: table's pa.  Only ever filled with tables reachable from the
        #: root, so it is dropped whenever the root is cleared or the
        #: tables are freed.  It saves host time, never cycles: ``map``
        #: is a kernel operation the walker does not charge.
        self._l2_tables: Dict[Tuple[int, int], int] = {}

    # -- PTE plumbing ----------------------------------------------------
    def _read_pte(self, table_pa: int, index: int) -> int:
        raw = self.mem.read(table_pa + index * PTE_SIZE, PTE_SIZE)
        return struct.unpack("<Q", raw)[0]

    def _write_pte(self, table_pa: int, index: int, value: int) -> None:
        self.mem.write(table_pa + index * PTE_SIZE, struct.pack("<Q", value))

    def _next_level(self, table_pa: int, index: int, create: bool) -> int:
        pte = self._read_pte(table_pa, index)
        if pte & _PTE_VALID:
            return (pte >> _PPN_SHIFT) << PAGE_SHIFT
        if not create:
            return -1
        child_pa = self.mem.alloc_page()
        self._owned_tables.append(child_pa)
        self._write_pte(
            table_pa, index, _PTE_VALID | ((child_pa >> PAGE_SHIFT) << _PPN_SHIFT)
        )
        return child_pa

    # -- mapping API -------------------------------------------------------
    def map(self, va: int, pa: int, perm: PagePerm) -> None:
        """Install a 4 KB mapping va -> pa with *perm*."""
        if va % PAGE_SIZE or pa % PAGE_SIZE:
            raise ValueError("map requires page-aligned addresses")
        if perm == PagePerm.NONE:
            raise ValueError("refusing to map with no permissions")
        i0, i1, i2 = _vpn_parts(va)
        l2 = self._l2_tables.get((i0, i1))
        if l2 is None:
            l1 = self._next_level(self.root_pa, i0, create=True)
            l2 = self._next_level(l1, i1, create=True)
            self._l2_tables[(i0, i1)] = l2
        if self._read_pte(l2, i2) & _PTE_VALID:
            raise ValueError(f"va {va:#x} is already mapped")
        pte = (
            _PTE_VALID
            | (int(perm) << _PERM_SHIFT)
            | ((pa >> PAGE_SHIFT) << _PPN_SHIFT)
        )
        self._write_pte(l2, i2, pte)
        self.mapped_pages += 1

    def map_pages(self, vas: List[int], perm: PagePerm,
                  base: int = FRESH) -> None:
        """Map each page VA in *vas* (ascending, page-aligned) with
        *perm* — all or nothing.  ``base=FRESH`` backs each page with a
        fresh zeroed frame, ``FRESH_CONTIGUOUS`` with one physically
        contiguous fresh block, and a page-aligned physical address
        maps ``vas[i]`` onto ``base + i * PAGE_SIZE``.

        Every page is checked first: if one is already mapped, this
        raises ``ValueError`` before a frame is allocated or a PTE is
        written.  Frames come in exactly the order a page-by-page
        ``map(va, alloc_page())`` loop takes them: by VA, each page's
        data frame before the L1/L2 table frames it needs.  So the first
        page under an L2 table not built yet goes through :meth:`map`;
        every other page under one L2 table is written as a run: one
        read of the run's PTE span, one allocator call, one store.  PTEs
        inside the span that are not in *vas* (guard pages) are written
        back unchanged.  A ``FRESH_CONTIGUOUS`` block is allocated after
        the check and before any table frame.
        """
        if not vas:
            return
        if vas[0] % PAGE_SIZE or base > 0 and base % PAGE_SIZE:
            raise ValueError("map requires page-aligned addresses")
        if perm == PagePerm.NONE:
            raise ValueError("refusing to map with no permissions")
        mem = self.mem
        cache = self._l2_tables
        # Check every page before touching anything.  One run per L2
        # table: pages vas[i:j] under table l2 (None: not built yet),
        # whose PTE span is ptes.
        runs = []
        n = len(vas)
        i = 0
        while i < n:
            top = vas[i] >> _L2_SHIFT
            j = bisect_left(vas, (top + 1) << _L2_SHIFT, i + 1)
            key = (top >> VPN_BITS & _INDEX_MASK, top & _INDEX_MASK)
            l2 = cache.get(key)
            if l2 is None:
                l2 = self._find_l2(key)
            ptes = None if l2 is None else self._pte_span(l2, vas, i, j)
            if ptes is not None and any(ptes):
                first = vas[i] >> PAGE_SHIFT
                for va in vas[i:j]:
                    if ptes[(va >> PAGE_SHIFT) - first] & _PTE_VALID:
                        raise ValueError(f"va {va:#x} is already mapped")
            runs.append((i, j, key, l2, ptes))
            i = j
        # Map, run by run in VA order.
        if base == FRESH_CONTIGUOUS:
            base = mem.alloc_contiguous(n * PAGE_SIZE)
        bits = _PTE_VALID | (int(perm) << _PERM_SHIFT)
        for i, j, key, l2, ptes in runs:
            if ptes is None:
                # The first page builds the tables, after its data frame.
                self.map(vas[i], mem.alloc_page() if base < 0
                         else base + i * PAGE_SIZE, perm)
                i += 1
                if i == j:
                    continue
                l2 = cache[key]
                ptes = self._pte_span(l2, vas, i, j)
            if base < 0:
                frames = mem.alloc_frames(j - i)
            else:
                frames = range((base >> PAGE_SHIFT) + i,
                               (base >> PAGE_SHIFT) + j)
            first = vas[i] >> PAGE_SHIFT
            for va, frame in zip(vas[i:j], frames):
                ptes[(va >> PAGE_SHIFT) - first] = bits | frame << _PPN_SHIFT
            mem.write(l2 + (first & _INDEX_MASK) * PTE_SIZE,
                      struct.pack("<%dQ" % len(ptes), *ptes))
            self.mapped_pages += j - i

    def map_range(self, va: int, pa: int, nbytes: int, perm: PagePerm) -> None:
        """Map *nbytes* at *va* onto the physically contiguous frames
        from *pa*, all or nothing (see :meth:`map_pages`)."""
        self.map_pages(list(range(va, va + _round_up(nbytes), PAGE_SIZE)),
                       perm, pa)

    def _find_l2(self, key: Tuple[int, int]) -> Optional[int]:
        """Walk to the L2 table for *key* without building one; cache
        and return its pa, or None when it does not exist."""
        l1 = self._next_level(self.root_pa, key[0], create=False)
        l2 = -1 if l1 == -1 else self._next_level(l1, key[1], create=False)
        if l2 == -1:
            return None
        self._l2_tables[key] = l2
        return l2

    def _pte_span(self, l2: int, vas: List[int], i: int, j: int) -> List[int]:
        """The PTEs of table *l2* from ``vas[i]``'s slot to
        ``vas[j - 1]``'s, in one read."""
        lo = vas[i] >> PAGE_SHIFT & _INDEX_MASK
        span = (vas[j - 1] >> PAGE_SHIFT & _INDEX_MASK) + 1 - lo
        return list(struct.unpack(
            "<%dQ" % span, self.mem.read(l2 + lo * PTE_SIZE, span * PTE_SIZE)))

    def unmap(self, va: int) -> int:
        """Remove the mapping for *va*; return the old physical address."""
        i0, i1, i2 = _vpn_parts(va)
        l1 = self._next_level(self.root_pa, i0, create=False)
        l2 = self._next_level(l1, i1, create=False) if l1 != -1 else -1
        if l2 == -1:
            raise PageFault(va, PagePerm.NONE, f"unmap of unmapped va {va:#x}")
        pte = self._read_pte(l2, i2)
        if not pte & _PTE_VALID:
            raise PageFault(va, PagePerm.NONE, f"unmap of unmapped va {va:#x}")
        self._write_pte(l2, i2, 0)
        self.mapped_pages -= 1
        return (pte >> _PPN_SHIFT) << PAGE_SHIFT

    def unmap_range(self, va: int, nbytes: int) -> None:
        for off in range(0, _round_up(nbytes), PAGE_SIZE):
            self.unmap(va + off)

    def walk(self, va: int) -> Tuple[int, PagePerm, int]:
        """Hardware walk: return (pa_of_page, perm, levels_touched)."""
        i0, i1, i2 = _vpn_parts(va)
        l1 = self._next_level(self.root_pa, i0, create=False)
        if l1 == -1:
            raise PageFault(va, PagePerm.NONE)
        l2 = self._next_level(l1, i1, create=False)
        if l2 == -1:
            raise PageFault(va, PagePerm.NONE)
        pte = self._read_pte(l2, i2)
        if not pte & _PTE_VALID:
            raise PageFault(va, PagePerm.NONE)
        perm = PagePerm((pte >> _PERM_SHIFT) & 0xF)
        return ((pte >> _PPN_SHIFT) << PAGE_SHIFT, perm, LEVELS)

    def lookup(self, va: int) -> Optional[Tuple[int, PagePerm]]:
        """Software lookup that returns None instead of faulting."""
        try:
            pa, perm, _ = self.walk(va)
        except PageFault:
            return None
        return pa, perm

    def mappings(self) -> Iterator[Tuple[int, int, PagePerm]]:
        """Yield every (va, pa, perm) mapping — used by the kernel only."""
        for i0 in range(ENTRIES_PER_TABLE):
            l1 = self._next_level(self.root_pa, i0, create=False)
            if l1 == -1:
                continue
            for i1 in range(ENTRIES_PER_TABLE):
                l2 = self._next_level(l1, i1, create=False)
                if l2 == -1:
                    continue
                for i2 in range(ENTRIES_PER_TABLE):
                    pte = self._read_pte(l2, i2)
                    if pte & _PTE_VALID:
                        va = ((i0 << (2 * VPN_BITS) | i1 << VPN_BITS | i2)
                              << PAGE_SHIFT)
                        yield (
                            va,
                            (pte >> _PPN_SHIFT) << PAGE_SHIFT,
                            PagePerm((pte >> _PERM_SHIFT) & 0xF),
                        )

    def zap(self) -> None:
        """Clear the top-level table (paper §4.2's cheap kill: "zero B's
        page table (the top level page) without scanning")."""
        self.mem.fill(self.root_pa, PAGE_SIZE)
        self.mapped_pages = 0
        self._l2_tables.clear()

    def destroy(self) -> None:
        """Free every table page owned by this radix tree."""
        for pa in self._owned_tables:
            self.mem.free_page(pa)
        self._owned_tables = []
        self._l2_tables.clear()


def _round_up(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


class AddressSpace:
    """A page table plus its ASID and a simple VA region allocator."""

    def __init__(self, mem: PhysicalMemory, name: str = "") -> None:
        self.mem = mem
        self.asid = next(mem.asids)
        self.name = name or f"as{self.asid}"
        self.page_table = PageTable(mem)
        self._va_cursor = 0x0000_0040_0000_0000  # user mmap area

    def mmap(self, nbytes: int, perm: PagePerm = PagePerm.RW,
             va: Optional[int] = None, contiguous: bool = False) -> int:
        """Allocate and map *nbytes* of anonymous memory; return the VA.

        Without *va* the region goes at the VA cursor, followed by a
        guard page.  All or nothing: if a page of the range is already
        mapped, ``ValueError`` is raised before any frame is allocated
        or the cursor moves."""
        size = _round_up(nbytes)
        start = self._va_cursor if va is None else va
        self.page_table.map_pages(
            list(range(start, start + size, PAGE_SIZE)), perm,
            FRESH_CONTIGUOUS if contiguous else FRESH)
        if va is None:
            self._va_cursor = start + size + PAGE_SIZE  # guard page
        return start

    def mmap_many(self, nbytes: int, count: int,
                  perm: PagePerm = PagePerm.RW) -> List[int]:
        """*count* cursor ``mmap(nbytes, perm)`` calls in one: the same
        VAs, guard pages and frames, with one page-table call (§4.2's
        library pre-creates a server's context stacks this way)."""
        size = _round_up(nbytes)
        stride = size + PAGE_SIZE                    # guard page
        va = self._va_cursor
        end = va + max(count, 0) * stride
        vas: List[int] = []
        for start in range(va, end, stride):
            vas.extend(range(start, start + size, PAGE_SIZE))
        self.page_table.map_pages(vas, perm)
        self._va_cursor = end
        return list(range(va, end, stride))

    def translate(self, va: int) -> int:
        """Software translation of one byte address (no timing)."""
        pa_page, _, _ = self.page_table.walk(va)
        return pa_page + (va % PAGE_SIZE)

    # Convenience raw accessors used by kernels/tests (no cycle charge;
    # cores charge timing via Core.mem_read/mem_write).
    def read(self, va: int, n: int) -> bytes:
        out = bytearray()
        while n > 0:
            pa = self.translate(va)
            chunk = min(n, PAGE_SIZE - (va % PAGE_SIZE))
            out += self.mem.read(pa, chunk)
            va += chunk
            n -= chunk
        return bytes(out)

    def write(self, va: int, data: bytes) -> None:
        off = 0
        while off < len(data):
            pa = self.translate(va + off)
            chunk = min(len(data) - off, PAGE_SIZE - ((va + off) % PAGE_SIZE))
            self.mem.write(pa, data[off:off + chunk])
            off += chunk
