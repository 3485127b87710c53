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
from typing import Dict, Iterator, Optional, Tuple

from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory

PTE_SIZE = 8
ENTRIES_PER_TABLE = PAGE_SIZE // PTE_SIZE  # 512
LEVELS = 3
VPN_BITS = 9


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

    def map_range(self, va: int, pa: int, nbytes: int, perm: PagePerm) -> None:
        for off in range(0, _round_up(nbytes), PAGE_SIZE):
            self.map(va + off, pa + off, perm)

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

    _next_asid = 1

    def __init__(self, mem: PhysicalMemory, name: str = "") -> None:
        self.mem = mem
        self.name = name or f"as{AddressSpace._next_asid}"
        self.asid = AddressSpace._next_asid
        AddressSpace._next_asid += 1
        self.page_table = PageTable(mem)
        self._va_cursor = 0x0000_0040_0000_0000  # user mmap area

    def mmap(self, nbytes: int, perm: PagePerm = PagePerm.RW,
             va: Optional[int] = None, contiguous: bool = False) -> int:
        """Allocate and map *nbytes* of anonymous memory; return the VA."""
        size = _round_up(nbytes)
        if va is None:
            va = self._va_cursor
            self._va_cursor += size + PAGE_SIZE  # guard page
        if contiguous:
            pa = self.mem.alloc_contiguous(size)
            self.page_table.map_range(va, pa, size, perm)
        else:
            for off in range(0, size, PAGE_SIZE):
                self.page_table.map(va + off, self.mem.alloc_page(), perm)
        return va

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
