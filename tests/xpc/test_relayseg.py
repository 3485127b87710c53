"""Relay segment, seg-mask, and seg-list semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.hw.paging import PagePerm
from repro.xpc.errors import InvalidSegMaskError, SwapSegError
from repro.xpc.relayseg import (
    NO_MASK, SEG_INVALID, RelaySegment, SegList, SegMask, SegReg,
    apply_mask,
)


def make_seg(length=16384, va=0x7000_0000_0000, pa=0x100000):
    return RelaySegment(pa, va, length, PagePerm.RW)


class TestSegReg:
    def test_window_for_segment(self):
        seg = make_seg()
        window = SegReg.for_segment(seg)
        assert window.valid
        assert window.contains(seg.va_base)
        assert window.contains(seg.va_base + seg.length - 1)
        assert not window.contains(seg.va_base + seg.length)

    def test_translate_is_linear(self):
        window = SegReg.for_segment(make_seg())
        assert (window.translate(window.va_base + 123)
                == window.pa_base + 123)

    def test_invalid_window(self):
        assert not SEG_INVALID.valid
        assert not SEG_INVALID.contains(0)

    def test_zero_length_segment_rejected(self):
        with pytest.raises(ValueError):
            RelaySegment(0x1000, 0x2000, 0)


class TestSegMask:
    def test_identity_mask_is_noop(self):
        window = SegReg.for_segment(make_seg())
        assert apply_mask(window, NO_MASK) == window

    def test_mask_shrinks_window(self):
        window = SegReg.for_segment(make_seg())
        masked = apply_mask(window, SegMask(4096, 8192))
        assert masked.va_base == window.va_base + 4096
        assert masked.pa_base == window.pa_base + 4096
        assert masked.length == 8192
        assert masked.segment is window.segment

    def test_mask_escaping_window_raises(self):
        window = SegReg.for_segment(make_seg(length=8192))
        with pytest.raises(InvalidSegMaskError):
            apply_mask(window, SegMask(4096, 8192))

    def test_negative_mask_rejected(self):
        window = SegReg.for_segment(make_seg())
        with pytest.raises(InvalidSegMaskError):
            apply_mask(window, SegMask(-1, 16))

    def test_mask_on_invalid_window_is_noop(self):
        assert apply_mask(SEG_INVALID, SegMask(0, 16)) == SEG_INVALID

    @given(offset=st.integers(0, 1 << 20), length=st.integers(0, 1 << 20))
    def test_mask_never_escapes(self, offset, length):
        """Property: a masked window stays inside the original window
        (the paper's TOCTTOU/no-overlap invariant) or faults."""
        window = SegReg.for_segment(make_seg(length=65536))
        try:
            masked = apply_mask(window, SegMask(offset, length))
        except InvalidSegMaskError:
            return
        assert masked.va_base >= window.va_base
        assert (masked.va_base + masked.length
                <= window.va_base + window.length)
        assert masked.pa_base - window.pa_base == \
            masked.va_base - window.va_base

    def test_nested_masks_compose_monotonically(self):
        window = SegReg.for_segment(make_seg(length=65536))
        once = apply_mask(window, SegMask(8192, 32768))
        twice = apply_mask(once, SegMask(4096, 8192))
        assert twice.va_base == window.va_base + 12288
        assert twice.length == 8192


class TestSegList:
    def test_swap_into_empty_slot_parks_current(self):
        seg_list = SegList(8)
        window = SegReg.for_segment(make_seg())
        incoming = seg_list.swap(0, window)
        assert incoming == SEG_INVALID        # nothing was parked
        assert seg_list.peek(0) == window

    def test_swap_retrieves_parked_window(self):
        seg_list = SegList(8)
        a = SegReg.for_segment(make_seg(va=0x7000_0000_0000))
        b = SegReg.for_segment(make_seg(va=0x7000_1000_0000))
        seg_list.store(3, a)
        got = seg_list.swap(3, b)
        assert got == a
        assert seg_list.peek(3) == b

    def test_swap_invalid_window_leaves_slot_empty(self):
        seg_list = SegList(8)
        a = SegReg.for_segment(make_seg())
        seg_list.store(0, a)
        got = seg_list.swap(0, SEG_INVALID)
        assert got == a
        assert seg_list.peek(0) is None

    def test_out_of_range_slot(self):
        seg_list = SegList(4)
        with pytest.raises(SwapSegError):
            seg_list.swap(4, SEG_INVALID)
        with pytest.raises(SwapSegError):
            seg_list.peek(-1)

    def test_segments_iteration(self):
        seg_list = SegList(8)
        a = SegReg.for_segment(make_seg())
        seg_list.store(2, a)
        assert [(i, w) for i, w in seg_list.segments()] == [(2, a)]

    def test_drop(self):
        seg_list = SegList(8)
        seg_list.store(1, SegReg.for_segment(make_seg()))
        seg_list.drop(1)
        assert seg_list.peek(1) is None


class TestSegListSlots:
    """Slot semantics pinned independently of how the slots are stored."""

    def test_swap_into_empty_slot_returns_the_invalid_value(self):
        seg_list = SegList(8)
        assert seg_list.swap(5, SEG_INVALID) is SEG_INVALID
        assert seg_list.peek(5) is None
        assert seg_list.segments() == []

    def test_zero_length_current_is_not_parked(self):
        seg_list = SegList(8)
        seg = make_seg()
        empty = SegReg(seg, seg.va_base, seg.pa_base, 0, seg.perm)
        assert seg_list.swap(1, empty) is SEG_INVALID
        assert seg_list.peek(1) is None
        parked = SegReg.for_segment(seg)
        seg_list.store(1, parked)
        assert seg_list.swap(1, empty) == parked
        assert seg_list.peek(1) is None

    def test_stored_zero_length_window_is_kept_but_not_listed(self):
        seg_list = SegList(8)
        seg = make_seg()
        empty = SegReg(seg, seg.va_base, seg.pa_base, 0, seg.perm)
        seg_list.store(3, empty)
        assert seg_list.peek(3) == empty
        assert seg_list.segments() == []

    def test_segments_come_back_in_slot_order(self):
        seg_list = SegList(8)
        windows = {slot: SegReg.for_segment(
            make_seg(va=0x7000_0000_0000 + slot * 0x10_0000))
            for slot in (6, 0, 3, 7)}
        for slot in (6, 0, 3, 7):
            seg_list.store(slot, windows[slot])
        seg_list.drop(3)
        assert seg_list.segments() == [
            (0, windows[0]), (6, windows[6]), (7, windows[7])]
        seg_list.swap(2, windows[3])
        assert [slot for slot, _ in seg_list.segments()] == [0, 2, 6, 7]

    def test_out_of_range_index_raises_on_every_operation(self):
        seg_list = SegList(4)
        window = SegReg.for_segment(make_seg())
        for bad in (-1, 4, 128):
            for call in (lambda: seg_list.store(bad, window),
                         lambda: seg_list.peek(bad),
                         lambda: seg_list.swap(bad, window),
                         lambda: seg_list.drop(bad)):
                with pytest.raises(SwapSegError) as info:
                    call()
                assert info.value.index == bad
        assert seg_list.segments() == []


class TestSegIdScoping:
    """Regression: segment IDs are kernel-scoped, not process-global.

    RelaySegment used to draw IDs from a class-level counter, so two
    simulator instances in one interpreter leaked allocation state into
    each other and replays were not deterministic.
    """

    def test_two_kernels_start_from_the_same_id(self):
        from repro.hw.machine import Machine
        from repro.kernel.kernel import BaseKernel

        def first_seg_id():
            machine = Machine(cores=1, mem_bytes=4 * 1024 * 1024)
            kernel = BaseKernel(machine)
            process = kernel.create_process("p")
            seg, _ = kernel.create_relay_seg(
                machine.core0, process, 4096)
            return seg.seg_id

        assert first_seg_id() == first_seg_id() == 1

    def test_ids_are_sequential_within_a_kernel(self):
        from repro.hw.machine import Machine
        from repro.kernel.kernel import BaseKernel

        machine = Machine(cores=1, mem_bytes=4 * 1024 * 1024)
        kernel = BaseKernel(machine)
        process = kernel.create_process("p")
        ids = [kernel.create_relay_seg(machine.core0, process, 4096)[0]
               .seg_id for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_direct_construction_gets_anonymous_id(self):
        assert make_seg().seg_id == 0
