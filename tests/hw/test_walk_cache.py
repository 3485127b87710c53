"""The page table's host-side L2-table cache stays coherent.

:meth:`PageTable.map` remembers which L2 table serves each ``(i0, i1)``
so it walks the upper two levels once per L2 table.  These tests hold
every mapping against a reference radix walk that reads the PTEs out
of DRAM with no cache at all, across ``zap`` (the §4.2 lazy kill),
``destroy`` and snapshot copies.
"""

import struct

import pytest

from repro.hw.memory import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.hw.paging import (AddressSpace, ENTRIES_PER_TABLE, PageFault,
                             PagePerm, PageTable)
from repro.snap.core import capture, restore

_VALID = 1
_L2_SPAN = ENTRIES_PER_TABLE * PAGE_SIZE        # VA covered by one L2


def _pte(mem: PhysicalMemory, table_pa: int, index: int) -> int:
    return struct.unpack("<Q", mem.read(table_pa + 8 * index, 8))[0]


def _child(pte: int) -> int:
    return (pte >> 10) << PAGE_SHIFT


def radix_mappings(table: PageTable) -> list:
    """Every ``(va, pa, perm)`` found by walking the tree in DRAM."""
    mem, out = table.mem, []
    for i0 in range(ENTRIES_PER_TABLE):
        pte0 = _pte(mem, table.root_pa, i0)
        if not pte0 & _VALID:
            continue
        for i1 in range(ENTRIES_PER_TABLE):
            pte1 = _pte(mem, _child(pte0), i1)
            if not pte1 & _VALID:
                continue
            for i2 in range(ENTRIES_PER_TABLE):
                pte = _pte(mem, _child(pte1), i2)
                if pte & _VALID:
                    va = ((i0 << 18) | (i1 << 9) | i2) << PAGE_SHIFT
                    out.append((va, _child(pte),
                                PagePerm((pte >> 1) & 0xF)))
    return out


def assert_coherent(table: PageTable) -> None:
    reference = radix_mappings(table)
    assert sorted(table.mappings()) == reference
    for va, pa, perm in reference:
        assert table.walk(va)[:2] == (pa, perm)
    assert table.mapped_pages == len(reference)


def _vas():
    """Three pages under one L2 table, one under another, one under
    another L1 table."""
    base = 0x40_0000_0000
    return [base, base + PAGE_SIZE, base + 7 * PAGE_SIZE,
            base + _L2_SPAN, base + ENTRIES_PER_TABLE * _L2_SPAN]


def _map_all(table: PageTable, vas) -> None:
    for va in vas:
        table.map(va, table.mem.alloc_page(), PagePerm.RW)


@pytest.fixture
def mem():
    return PhysicalMemory(16 * 1024 * 1024)


def zap_and_remap(mem: PhysicalMemory) -> None:
    """Map, zap, map the same VAs again: the second round must build
    fresh L1/L2 tables, since the zapped root no longer reaches the
    old ones."""
    table = PageTable(mem)
    _map_all(table, _vas())
    old_tables = set(table._owned_tables)
    table.zap()
    assert radix_mappings(table) == []
    # A VA never mapped before, under one of the zapped L2 tables.
    fresh = _vas()[0] + 9 * PAGE_SIZE
    table.map(fresh, mem.alloc_page(), PagePerm.R)
    assert table.walk(fresh)[1] == PagePerm.R
    _map_all(table, _vas())
    new_tables = set(table._owned_tables) - old_tables
    # Two L1 tables (one per i0) and three L2 tables.
    assert len(new_tables) == 5
    assert_coherent(table)


def test_map_is_coherent_with_a_cache_free_walk(mem):
    table = PageTable(mem)
    _map_all(table, _vas())
    assert_coherent(table)
    table.unmap(_vas()[1])
    table.map(_vas()[1], mem.alloc_page(), PagePerm.R)
    assert_coherent(table)
    with pytest.raises(ValueError, match="already mapped"):
        table.map(_vas()[0], mem.alloc_page(), PagePerm.RW)


def test_zap_then_map_builds_fresh_tables(mem):
    zap_and_remap(mem)


def test_dropping_the_zap_invalidation_is_caught(mem, monkeypatch):
    """The check above fails against a zap that forgets the cache:
    the first map after it lands in an orphaned L2 table."""
    def leaky_zap(self):
        self.mem.fill(self.root_pa, PAGE_SIZE)
        self.mapped_pages = 0
    monkeypatch.setattr(PageTable, "zap", leaky_zap)
    with pytest.raises(PageFault):
        zap_and_remap(mem)


def test_destroy_drops_every_cache_entry(mem):
    table = PageTable(mem)
    _map_all(table, _vas())
    assert table._l2_tables
    table.destroy()
    assert table._l2_tables == {}


def test_table_frames_allocate_in_the_same_order(mem):
    """Data frame first, then its L1 and L2 tables, on every map that
    needs them — the cache must not move a table frame."""
    table = PageTable(mem)              # root: frame 1 (0 is reserved)
    _map_all(table, _vas())
    # data 2, L1 3, L2 4; data 5; data 6; data 7, L2 8; data 9, L1 10,
    # L2 11.
    frames = [pa >> PAGE_SHIFT for pa in table._owned_tables]
    assert frames == [1, 3, 4, 8, 10, 11]
    assert mem.allocator.allocated == 11


def test_restored_address_spaces_keep_mapping(mem):
    """Two revivals of one snapshot (live -> dormant -> live deepcopies)
    each map on their own: under the L2 table the copy's cache already
    holds, and in a brand-new region."""
    aspace = AddressSpace(mem)
    va = aspace.mmap(3 * PAGE_SIZE)
    aspace.write(va, b"before")
    snap = capture(aspace)
    near = va + 3 * PAGE_SIZE
    for tag in (b"one", b"two"):
        dup = restore(snap)
        dup.page_table.map(near, dup.mem.alloc_page(), PagePerm.RW)
        far = dup.mmap(2 * PAGE_SIZE, va=va + 3 * _L2_SPAN)
        dup.write(near, tag)
        dup.write(far + PAGE_SIZE, tag)
        assert dup.read(va, 6) == b"before"
        assert dup.read(near, 3) == tag
        assert dup.read(far + PAGE_SIZE, 3) == tag
        assert_coherent(dup.page_table)
    # The original is untouched by the copies' maps, and still maps.
    assert aspace.page_table.lookup(near) is None
    aspace.page_table.map(near, mem.alloc_page(), PagePerm.R)
    assert_coherent(aspace.page_table)
