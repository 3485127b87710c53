"""Page tables and address spaces."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.paging import AddressSpace, PageFault, PagePerm, PageTable


@pytest.fixture
def mem():
    return PhysicalMemory(64 * 1024 * 1024)


class TestPageTable:
    def test_walk_after_map(self, mem):
        pt = PageTable(mem)
        pa = mem.alloc_page()
        pt.map(0x400000, pa, PagePerm.RW)
        got_pa, perm, levels = pt.walk(0x400000)
        assert got_pa == pa
        assert perm == PagePerm.RW
        assert levels == 3

    def test_unmapped_faults(self, mem):
        pt = PageTable(mem)
        with pytest.raises(PageFault):
            pt.walk(0xdead000)

    def test_double_map_rejected(self, mem):
        pt = PageTable(mem)
        pa = mem.alloc_page()
        pt.map(0x1000, pa, PagePerm.R)
        with pytest.raises(ValueError):
            pt.map(0x1000, pa, PagePerm.R)

    def test_unaligned_map_rejected(self, mem):
        pt = PageTable(mem)
        with pytest.raises(ValueError):
            pt.map(0x1001, 0x2000, PagePerm.R)

    def test_map_with_no_perm_rejected(self, mem):
        pt = PageTable(mem)
        with pytest.raises(ValueError):
            pt.map(0x1000, 0x2000, PagePerm.NONE)

    def test_unmap_then_fault(self, mem):
        pt = PageTable(mem)
        pa = mem.alloc_page()
        pt.map(0x5000, pa, PagePerm.RW)
        assert pt.unmap(0x5000) == pa
        with pytest.raises(PageFault):
            pt.walk(0x5000)

    def test_unmap_unmapped_faults(self, mem):
        pt = PageTable(mem)
        with pytest.raises(PageFault):
            pt.unmap(0x7000)

    def test_map_range_and_iterate(self, mem):
        pt = PageTable(mem)
        pa = mem.alloc_contiguous(4 * PAGE_SIZE)
        pt.map_range(0x10000, pa, 4 * PAGE_SIZE, PagePerm.RWX)
        mappings = sorted(pt.mappings())
        assert len(mappings) == 4
        assert mappings[0] == (0x10000, pa, PagePerm.RWX)
        assert mappings[3][0] == 0x10000 + 3 * PAGE_SIZE

    def test_map_range_is_all_or_nothing(self, mem):
        pt = PageTable(mem)
        pt.map(0x10000 + 2 * PAGE_SIZE, mem.alloc_page(), PagePerm.RW)
        pa = mem.alloc_contiguous(4 * PAGE_SIZE)
        with pytest.raises(ValueError, match="already mapped"):
            pt.map_range(0x10000, pa, 4 * PAGE_SIZE, PagePerm.RW)
        assert pt.mapped_pages == 1
        assert pt.lookup(0x10000) is None
        assert pt.lookup(0x10000 + PAGE_SIZE) is None

    def test_high_virtual_addresses(self, mem):
        pt = PageTable(mem)
        pa = mem.alloc_page()
        high_va = 0x0000_7F00_0000_0000
        pt.map(high_va, pa, PagePerm.RW)
        assert pt.walk(high_va)[0] == pa

    def test_zap_clears_everything(self, mem):
        pt = PageTable(mem)
        pt.map(0x1000, mem.alloc_page(), PagePerm.R)
        pt.zap()
        assert pt.mapped_pages == 0
        with pytest.raises(PageFault):
            pt.walk(0x1000)

    def test_lookup_returns_none_not_fault(self, mem):
        pt = PageTable(mem)
        assert pt.lookup(0x123000) is None

    @given(vpns=st.lists(st.integers(min_value=0, max_value=2 ** 27 - 1),
                         min_size=1, max_size=30, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_translation_is_injective(self, vpns):
        """Distinct mapped VAs never alias distinct PAs wrongly."""
        mem = PhysicalMemory(64 * 1024 * 1024)
        pt = PageTable(mem)
        mapping = {}
        for vpn in vpns:
            va = vpn * PAGE_SIZE
            pa = mem.alloc_page()
            pt.map(va, pa, PagePerm.RW)
            mapping[va] = pa
        for va, pa in mapping.items():
            assert pt.walk(va)[0] == pa


class TestAddressSpace:
    def test_mmap_read_write(self, mem):
        aspace = AddressSpace(mem)
        va = aspace.mmap(10000)
        aspace.write(va + 123, b"payload")
        assert aspace.read(va + 123, 7) == b"payload"

    def test_cross_page_write(self, mem):
        aspace = AddressSpace(mem)
        va = aspace.mmap(3 * PAGE_SIZE)
        blob = bytes(range(256)) * 20
        aspace.write(va + PAGE_SIZE - 100, blob)
        assert aspace.read(va + PAGE_SIZE - 100, len(blob)) == blob

    def test_unique_asids(self, mem):
        a = AddressSpace(mem)
        b = AddressSpace(mem)
        assert a.asid != b.asid

    def test_contiguous_mmap(self, mem):
        aspace = AddressSpace(mem)
        va = aspace.mmap(3 * PAGE_SIZE, contiguous=True)
        pa0 = aspace.translate(va)
        pa2 = aspace.translate(va + 2 * PAGE_SIZE)
        assert pa2 == pa0 + 2 * PAGE_SIZE

    def test_isolation_between_spaces(self, mem):
        a = AddressSpace(mem)
        b = AddressSpace(mem)
        va_a = a.mmap(PAGE_SIZE)
        va_b = b.mmap(PAGE_SIZE, va=va_a)
        a.write(va_a, b"AAAA")
        b.write(va_b, b"BBBB")
        assert a.read(va_a, 4) == b"AAAA"
        assert b.read(va_b, 4) == b"BBBB"


class TestMmapAllOrNothing:
    """A refused ``mmap`` leaves memory, page table and VA cursor as they
    were: the range is checked before a frame is allocated."""

    @staticmethod
    def _state(aspace):
        mem = aspace.mem
        return ([list(e) for e in mem.allocator._extents],
                mem.allocator.allocated, aspace.page_table.mapped_pages,
                aspace._va_cursor, sorted(mem.snap_page_table().items()))

    @pytest.mark.parametrize("contiguous", [False, True])
    def test_taken_page_in_the_middle(self, mem, contiguous):
        aspace = AddressSpace(mem)
        base = aspace.mmap(PAGE_SIZE) + 16 * PAGE_SIZE
        taken = aspace.mmap(PAGE_SIZE, va=base + 2 * PAGE_SIZE)
        aspace.write(taken, b"kept")
        before = self._state(aspace)
        with pytest.raises(ValueError, match="already mapped"):
            aspace.mmap(4 * PAGE_SIZE, va=base, contiguous=contiguous)
        assert self._state(aspace) == before
        for page in (0, 1, 3):
            assert aspace.page_table.lookup(base + page * PAGE_SIZE) is None
        assert aspace.read(taken, 4) == b"kept"
        # The free pages of the range are still mappable.
        aspace.mmap(2 * PAGE_SIZE, va=base)
        aspace.mmap(PAGE_SIZE, va=base + 3 * PAGE_SIZE)

    def test_taken_page_past_an_l2_boundary(self, mem):
        aspace = AddressSpace(mem)
        l2_span = 512 * PAGE_SIZE
        base = aspace.mmap(PAGE_SIZE) + l2_span - 2 * PAGE_SIZE
        base -= base % PAGE_SIZE
        aspace.mmap(PAGE_SIZE, va=base + 3 * PAGE_SIZE)
        before = self._state(aspace)
        with pytest.raises(ValueError):
            aspace.mmap(5 * PAGE_SIZE, va=base)
        assert self._state(aspace) == before

    def test_refused_cursor_mapping_keeps_the_cursor(self, mem):
        aspace = AddressSpace(mem)
        cursor = aspace._va_cursor
        aspace.mmap(PAGE_SIZE, va=cursor + PAGE_SIZE)
        before = self._state(aspace)
        with pytest.raises(ValueError):
            aspace.mmap(2 * PAGE_SIZE)
        assert self._state(aspace) == before
        assert aspace.mmap(PAGE_SIZE) == cursor
