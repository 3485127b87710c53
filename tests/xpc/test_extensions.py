"""The §6.2 extensions: radix-tree xcall-cap and the relay page table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.xpc.capability import XCallCapBitmap
from repro.xpc.errors import InvalidSegMaskError, InvalidXCallCapError
from repro.xpc.radix_cap import RadixCapTable
from repro.xpc.relay_pagetable import RelayPageTable


class TestRadixCap:
    def test_grant_test_revoke(self):
        caps = RadixCapTable(id_bits=18)
        caps.grant(123456)
        assert caps.test(123456)
        assert not caps.test(123457)
        caps.revoke(123456)
        assert not caps.test(123456)

    def test_check_raises(self):
        caps = RadixCapTable()
        with pytest.raises(InvalidXCallCapError):
            caps.check(7)

    def test_huge_id_space(self):
        """The point of the radix tree: 2^18 ids, tiny footprint."""
        caps = RadixCapTable(id_bits=18)
        assert len(caps) == 1 << 18
        caps.grant((1 << 18) - 1)
        assert caps.test((1 << 18) - 1)
        # A bitmap over the same space needs 32 KB; the sparse radix
        # tree stays under a few nodes.
        bitmap_bytes = (1 << 18) // 8
        assert caps.memory_bytes() < bitmap_bytes // 4

    def test_out_of_range(self):
        caps = RadixCapTable(id_bits=10)
        with pytest.raises(IndexError):
            caps.grant(1 << 10)

    def test_check_refuses_out_of_range_ids_as_missing_caps(self):
        caps = RadixCapTable(id_bits=10)
        for entry_id in (1 << 10, -1):
            with pytest.raises(InvalidXCallCapError) as info:
                caps.check(entry_id)
            assert info.value.entry_id == entry_id

    def test_walk_costs_more_than_bitmap(self):
        """The §6.2 trade-off: the radix walk is slower per check."""
        from repro.params import DEFAULT_PARAMS
        caps = RadixCapTable(id_bits=18)
        assert caps.check_cycles() > DEFAULT_PARAMS.cap_bitmap_check

    def test_revoke_missing_is_noop(self):
        caps = RadixCapTable()
        caps.revoke(5)  # no exception
        assert not caps.test(5)

    @given(ids=st.sets(st.integers(0, (1 << 18) - 1), max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_matches_bitmap_semantics(self, ids):
        """Property: the radix tree and the bitmap agree exactly."""
        radix = RadixCapTable(id_bits=18)
        bitmap = XCallCapBitmap(1 << 18)
        for i in ids:
            radix.grant(i)
            bitmap.grant(i)
        assert list(radix.granted_ids()) == list(bitmap.granted_ids())
        probe = set(list(ids)[:10]) | {0, 1, (1 << 18) - 1}
        for i in probe:
            assert radix.test(i) == bitmap.test(i)


class TestRelayPageTable:
    @pytest.fixture
    def mem(self):
        return PhysicalMemory(32 * 1024 * 1024)

    def test_non_contiguous_backing(self, mem):
        rpt = RelayPageTable(mem, 0x7000_0000_0000, 4)
        # Deliberately fragment-friendly: pages need not be adjacent.
        assert len(rpt.pages) == 4

    def test_write_read_across_pages(self, mem):
        rpt = RelayPageTable(mem, 0x7000_0000_0000, 3)
        blob = bytes(range(256)) * 30
        rpt.write(blob, offset=PAGE_SIZE - 100)
        assert rpt.read(len(blob), offset=PAGE_SIZE - 100) == blob

    def test_translate_inside_window(self, mem):
        base = 0x7000_0000_0000
        rpt = RelayPageTable(mem, base, 2)
        pa = rpt.translate(base + PAGE_SIZE + 17, )
        assert pa == rpt.pages[1] + 17

    def test_translate_outside_window_is_none(self, mem):
        base = 0x7000_0000_0000
        rpt = RelayPageTable(mem, base, 2)
        assert rpt.translate(base - 1) is None
        assert rpt.translate(base + 2 * PAGE_SIZE) is None

    def test_page_granular_mask(self, mem):
        """§6.2: 'relay page table can only support page-level
        granularity' — masks snap to pages."""
        base = 0x7000_0000_0000
        rpt = RelayPageTable(mem, base, 4)
        rpt.mask_pages(1, 2)
        assert rpt.translate(base) is None          # masked out
        assert rpt.translate(base + PAGE_SIZE) is not None
        assert rpt.translate(base + 3 * PAGE_SIZE) is None
        rpt.unmask()
        assert rpt.translate(base) is not None

    def test_bad_mask(self, mem):
        rpt = RelayPageTable(mem, 0x7000_0000_0000, 2)
        with pytest.raises(InvalidSegMaskError):
            rpt.mask_pages(1, 2)
        with pytest.raises(InvalidSegMaskError):
            rpt.mask_pages(0, 0)

    def test_walk_costs_more_than_seg_reg(self, mem):
        """The dual-PT translation pays a radix walk; seg-reg is a
        register compare."""
        from repro.params import DEFAULT_PARAMS
        rpt = RelayPageTable(mem, 0x7000_0000_0000, 1)
        assert rpt.walk_cycles(DEFAULT_PARAMS) >= \
            3 * DEFAULT_PARAMS.page_walk_per_level

    def test_destroy_frees_pages(self, mem):
        free_before = mem.allocator.free_frames
        rpt = RelayPageTable(mem, 0x7000_0000_0000, 8)
        rpt.destroy()
        # The mapping tables themselves are freed too.
        assert mem.allocator.free_frames == free_before
