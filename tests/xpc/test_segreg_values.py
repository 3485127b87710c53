"""``SegReg``/``SegMask`` are immutable values (paper §3.3 registers).

Register values compare, hash and print by content, refuse attribute
assignment, survive a snapshot round trip with their ``segment``
reference re-pointed into the restored graph, and fingerprint exactly
as they did when they were frozen dataclasses.  ``apply_mask`` — the
hardware's seg-reg ∩ seg-mask at ``xcall`` time — is checked against a
plain formula, including its "Invalid seg-mask" messages.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.machine import Machine
from repro.hw.paging import PagePerm
from repro.kernel.kernel import BaseKernel
from repro.snap import SimWorld, capture, fingerprint, live_fingerprint
from repro.snap import restore
from repro.xpc.errors import InvalidSegMaskError
from repro.xpc.relayseg import (NO_MASK, SEG_INVALID, RelaySegment, SegMask,
                                SegReg, apply_mask)


def _seg(seg_id=3, length=4096):
    return RelaySegment(0x2000, 0x1000, length, PagePerm.RW, seg_id=seg_id)


class TestEqualityAndHash:
    def test_equal_values_compare_and_hash_equal(self):
        seg = _seg()
        a = SegReg(seg, 0x1000, 0x2000, 64, PagePerm.RW)
        b = SegReg(seg, 0x1000, 0x2000, 64, PagePerm.RW)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert SegMask(4, 8) == SegMask(4, 8)
        assert hash(SegMask(4, 8)) == hash(SegMask(4, 8))
        assert SegMask() == NO_MASK and SegReg() == SEG_INVALID
        assert len({a, b, SEG_INVALID, SegReg()}) == 2

    def test_any_field_difference_is_unequal(self):
        seg = _seg()
        base = SegReg(seg, 0x1000, 0x2000, 64, PagePerm.RW)
        for other in (SegReg(_seg(), 0x1000, 0x2000, 64, PagePerm.RW),
                      SegReg(seg, 0x1001, 0x2000, 64, PagePerm.RW),
                      SegReg(seg, 0x1000, 0x2001, 64, PagePerm.RW),
                      SegReg(seg, 0x1000, 0x2000, 65, PagePerm.RW),
                      SegReg(seg, 0x1000, 0x2000, 64, PagePerm.R)):
            assert base != other and not base == other
        assert SegMask(4, 8) != SegMask(4, 9)
        assert SegMask(4, 8) != SegMask(5, 8)

    def test_segments_compare_by_identity(self):
        # Two segments with the same geometry are different registers'
        # worth of memory: the window's segment is an identity.
        assert (SegReg.for_segment(_seg()) != SegReg.for_segment(_seg()))

    @pytest.mark.parametrize("field,value", [
        ("segment", None), ("va_base", 1), ("pa_base", 1),
        ("length", 1), ("perm", PagePerm.R)])
    def test_segreg_assignment_raises(self, field, value):
        reg = SegReg.for_segment(_seg())
        with pytest.raises(AttributeError):
            setattr(reg, field, value)
        assert reg == SegReg.for_segment(reg.segment)

    @pytest.mark.parametrize("field", ["offset", "length"])
    def test_segmask_assignment_raises(self, field):
        mask = SegMask(4, 8)
        with pytest.raises(AttributeError):
            setattr(mask, field, 0)
        assert mask == SegMask(4, 8)

    def test_module_singletons_stay_pristine(self):
        with pytest.raises(AttributeError):
            NO_MASK.length = 16
        with pytest.raises(AttributeError):
            SEG_INVALID.length = 16
        assert NO_MASK.is_identity and not SEG_INVALID.valid


class TestRepr:
    # Recorded from the frozen-dataclass implementation.
    def test_repr_text(self):
        assert repr(SEG_INVALID) == (
            "SegReg(segment=None, va_base=0, pa_base=0, length=0, "
            "perm=<PagePerm.NONE: 0>)")
        assert repr(SegReg.for_segment(_seg())) == (
            "SegReg(segment=RelaySegment(id=3, va=0x1000, pa=0x2000, "
            "len=4096), va_base=4096, pa_base=8192, length=4096, "
            "perm=<PagePerm.RW: 3>)")
        assert repr(NO_MASK) == "SegMask(offset=0, length=-1)"
        assert repr(SegMask(4, 8)) == "SegMask(offset=4, length=8)"


class TestSnapshot:
    # Fingerprints recorded from the frozen-dataclass implementation:
    # the value types hash into the same canonical token stream.
    FINGERPRINTS = {
        "invalid": "d6c3d3b9d3c3ccbac3a5aa1f0ed916de7d4c569b8d3a5d809948a14fdc2f4e3b",
        "mask": "021a4e71add9d2c8e6ffe3ba75ccf6b10801c175239c1ea9f924714e453fab6e",
        "window": "8738adbde8f592fc0c6df619194a7ed15c5775242011d73d7581c9fe042ef1d8",
    }

    def test_fingerprints_unchanged(self):
        values = {"invalid": SEG_INVALID, "mask": SegMask(4, 8),
                  "window": SegReg.for_segment(_seg())}
        got = {name: fingerprint(v) for name, v in values.items()}
        assert got == self.FINGERPRINTS

    def _world(self):
        machine = Machine(cores=1, mem_bytes=16 * 1024 * 1024)
        kernel = BaseKernel(machine)
        core = machine.core0
        process = kernel.create_process("p")
        thread = kernel.create_thread(process)
        kernel.run_thread(core, thread)
        seg, slot = kernel.create_relay_seg(core, process, 8192)
        process.seg_list.drop(slot)
        kernel.install_relay_seg(thread, seg)
        thread.xpc.seg_mask = SegMask(0, 4096)
        parked, _ = kernel.create_relay_seg(core, process, 4096)
        return SimWorld(machine=machine, kernel=kernel, core=core,
                        thread=thread, seg=seg, parked=parked)

    def test_capture_restore_keeps_segment_identity(self):
        world = self._world()
        snap = capture(world)
        revived = restore(snap)
        reg = revived.thread.xpc.seg_reg
        assert reg == SegReg.for_segment(revived.seg)
        assert reg.segment is revived.seg
        assert reg.segment is not world.seg
        assert reg.segment in revived.kernel.relay_segments
        (slot, parked), = revived.thread.process.seg_list.segments()
        assert parked.segment is revived.parked
        assert revived.thread.xpc.seg_mask == SegMask(0, 4096)
        assert live_fingerprint(world) == snap.fingerprint
        assert live_fingerprint(revived) == snap.fingerprint


def _expected(seg, mask):
    """The hardware rule, written out longhand."""
    if (mask.offset == 0 and mask.length < 0) or seg.segment is None \
            or seg.length <= 0:
        return seg
    if mask.offset < 0 or mask.length < 0:
        return "negative seg-mask field"
    if mask.offset + mask.length > seg.length:
        return (f"mask [{mask.offset}, +{mask.length}) escapes window "
                f"of length {seg.length}")
    return (seg.segment, seg.va_base + mask.offset,
            seg.pa_base + mask.offset, mask.length, seg.perm)


_SEGMENT = _seg(length=1 << 16)

windows = st.one_of(
    st.just(SEG_INVALID),
    st.builds(lambda va, pa, n, perm: SegReg(_SEGMENT, va, pa, n, perm),
              st.integers(0, 1 << 20), st.integers(0, 1 << 20),
              st.integers(-1, 1 << 16),
              st.sampled_from([PagePerm.R, PagePerm.RW, PagePerm.NONE])))
masks = st.builds(SegMask, st.integers(-8, 1 << 17), st.integers(-8, 1 << 17))


@settings(max_examples=300, deadline=None)
@given(windows, masks)
def test_apply_mask_matches_formula(seg, mask):
    want = _expected(seg, mask)
    if isinstance(want, str):
        with pytest.raises(InvalidSegMaskError) as info:
            apply_mask(seg, mask)
        assert str(info.value) == want
        return
    got = apply_mask(seg, mask)
    if want is seg:
        assert got is seg
    else:
        assert type(got) is SegReg
        assert (got.segment, got.va_base, got.pa_base, got.length,
                got.perm) == want
