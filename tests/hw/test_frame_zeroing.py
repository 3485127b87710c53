"""Free frames read zero.

:class:`~repro.hw.memory.PhysicalMemory` keeps one invariant in place
of zero-filling at allocation: every frame on the allocator's free list
reads zero.  DRAM starts zeroed and every free path scrubs what it
returns, so a newly allocated frame is already zero.  These tests drive
every path that frees frames — ``free_page``/``free_contiguous``,
``PageTable.destroy``, ``RelayPageTable.destroy``, ``free_relay_seg``
and the seL4 shared buffer's regrow — interleaved with writes, COW
checkpoints and dormant → live restores, and check the invariant after
every step; then scan whole machines after the fig5/fig7 scenarios and
the generated programs.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.machine import Machine
from repro.hw.memory import OutOfMemoryError, PAGE_SIZE, PhysicalMemory
from repro.hw.paging import PagePerm, PageTable
from repro.kernel.kernel import KernelError
from repro.sel4 import Sel4Kernel
from repro.snap.core import capture, restore
from repro.xpc.relay_pagetable import RelayPageTable
from tests.hw.test_setup_goldens import WORLDS, memories

#: L2 tables each cover 2 MiB of VA; spreading a table's pages over
#: this stride gives it several L1/L2 tables to free.
_L2_SPAN = 512 * PAGE_SIZE


def free_frames(memory: PhysicalMemory) -> set:
    return {frame for start, n in memory.allocator._extents
            for frame in range(start, start + n)}


#: Free extents are read this many bytes at a time, so a whole
#: machine's free DRAM is checked without a copy of its size.
_CHUNK = 256 * PAGE_SIZE
_ZERO_CHUNK = bytes(_CHUNK)


def assert_free_frames_read_zero(memory: PhysicalMemory,
                                 label: str = "") -> None:
    for start, n in memory.allocator._extents:
        end = (start + n) * PAGE_SIZE
        for pa in range(start * PAGE_SIZE, end, _CHUNK):
            size = min(_CHUNK, end - pa)
            assert memory.read(pa, size) == _ZERO_CHUNK[:size], (
                f"{label}: free extent [{start}, +{n}) holds stale bytes")


def assert_no_free_frame_in_page_table(memory: PhysicalMemory,
                                       label: str = "") -> None:
    """No free frame is in the COW page view.  The first page sync
    skips free frames, so on a live memory this alone cannot see stale
    bytes in them: pair it with :func:`assert_free_frames_read_zero`."""
    stale = free_frames(memory) & set(memory.snap_page_table())
    assert not stale, f"{label}: free frames {sorted(stale)[:8]} non-zero"


class _Rig:
    """One small seL4 machine plus everything the ops have allocated.

    It is a single object graph, so :func:`repro.snap.capture` and
    :func:`repro.snap.restore` take the whole rig and the physical
    addresses it tracks stay valid in the copy."""

    def __init__(self) -> None:
        self.machine = Machine(cores=1, mem_bytes=4 * 1024 * 1024)
        self.kernel = Sel4Kernel(self.machine)
        self.a = self.kernel.create_process("a")
        self.b = self.kernel.create_process("b")
        self.pages = []             # pa
        self.ranges = []            # (pa, nbytes)
        self.tables = []            # (PageTable, [data pa])
        self.relay_tables = []      # RelayPageTable
        self.segs = []              # (RelaySegment, seg-list slot)
        self.freed_segs = []
        self.relay_va = 0x0000_6000_0000_0000

    @property
    def mem(self) -> PhysicalMemory:
        return self.machine.memory

    @property
    def core(self):
        return self.machine.core0

    def writable(self) -> list:
        """``(pa, nbytes)`` of every live frame a user may write."""
        out = [(pa, PAGE_SIZE) for pa in self.pages] + list(self.ranges)
        for _, data in self.tables:
            out += [(pa, PAGE_SIZE) for pa in data]
        for rpt in self.relay_tables:
            out += [(pa, PAGE_SIZE) for pa in rpt.pages]
        out += [(seg.pa_base, seg.length) for seg, _ in self.segs]
        out += [(pa, size)
                for _, _, pa, size in self.kernel._shared_bufs.values()]
        return out


def _pick(items: list, index: int):
    return items.pop(index % len(items)) if items else None


def _step(rig: _Rig, op: tuple) -> None:
    kind, arg = op
    mem = rig.mem
    if kind == "page":
        rig.pages.append(mem.alloc_page())
    elif kind == "contig":
        rig.ranges.append((mem.alloc_contiguous(arg * PAGE_SIZE),
                           arg * PAGE_SIZE))
    elif kind == "write":
        targets = rig.writable()
        if targets:
            pa, size = targets[arg % len(targets)]
            # The 16-byte store stays inside its target.
            mem.write(pa + (arg * 97) % (size - 15),
                      bytes([arg % 255 + 1]) * 16)
    elif kind == "free_page":
        pa = _pick(rig.pages, arg)
        if pa is not None:
            mem.free_page(pa)
    elif kind == "free_contig":
        picked = _pick(rig.ranges, arg)
        if picked is not None:
            mem.free_contiguous(*picked)
    elif kind == "table":
        table = PageTable(mem)
        data = []
        for i in range(arg):
            pa = mem.alloc_page()
            table.map(0x40_0000_0000 + i * (_L2_SPAN + PAGE_SIZE), pa,
                      PagePerm.RW)
            data.append(pa)
        rig.tables.append((table, data))
    elif kind == "table_destroy":
        picked = _pick(rig.tables, arg)
        if picked is not None:
            table, data = picked
            table.destroy()
            for pa in data:
                mem.free_page(pa)
    elif kind == "relay_table":
        rpt = RelayPageTable(mem, rig.relay_va, arg)
        rig.relay_va += (arg + 1) * PAGE_SIZE
        rpt.write(bytes([arg]) * (arg * PAGE_SIZE - 5), offset=3)
        rig.relay_tables.append(rpt)
    elif kind == "relay_table_destroy":
        rpt = _pick(rig.relay_tables, arg)
        if rpt is not None:
            rpt.destroy()
    elif kind == "seg":
        try:
            rig.segs.append(rig.kernel.create_relay_seg(
                rig.core, rig.a, arg * PAGE_SIZE))
        except KernelError:         # seg-list full
            pass
    elif kind == "seg_free":
        picked = _pick(rig.segs, arg)
        if picked is not None:
            seg, slot = picked
            rig.a.seg_list.drop(slot)
            rig.kernel.free_relay_seg(rig.core, seg)
            rig.freed_segs.append(seg)
    elif kind == "seg_free_again":
        if rig.freed_segs:
            seg = rig.freed_segs[arg % len(rig.freed_segs)]
            extents = [list(e) for e in mem.allocator._extents]
            with pytest.raises(KernelError):
                rig.kernel.free_relay_seg(rig.core, seg)
            assert mem.allocator._extents == extents
    elif kind == "shared_buffer":     # grows (and frees) when arg rises
        rig.kernel.shared_buffer(rig.a, rig.b, arg * PAGE_SIZE)
    else:                           # pragma: no cover - strategy bug
        raise AssertionError(kind)


_SIZE = st.integers(min_value=1, max_value=4)
_INDEX = st.integers(min_value=0, max_value=250)
OPS = st.lists(st.one_of(
    st.tuples(st.just("page"), st.just(0)),
    st.tuples(st.just("contig"), _SIZE),
    st.tuples(st.just("write"), _INDEX),
    st.tuples(st.just("free_page"), _INDEX),
    st.tuples(st.just("free_contig"), _INDEX),
    st.tuples(st.just("table"), _SIZE),
    st.tuples(st.just("table_destroy"), _INDEX),
    st.tuples(st.just("relay_table"), _SIZE),
    st.tuples(st.just("relay_table_destroy"), _INDEX),
    st.tuples(st.just("seg"), _SIZE),
    st.tuples(st.just("seg_free"), _INDEX),
    st.tuples(st.just("seg_free_again"), _INDEX),
    st.tuples(st.just("shared_buffer"), _SIZE),
    st.tuples(st.just("checkpoint"), st.just(0)),
    st.tuples(st.just("restore"), st.just(0)),
), max_size=40)


def _checked_alloc(original):
    """Wrap an allocation method so every frame it hands out is
    checked for zero before the caller can write it."""
    def alloc(self, *args):
        pa = original(self, *args)
        size = args[0] if args else PAGE_SIZE
        size = (size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        assert self.read(pa, size) == bytes(size), (
            f"allocated frame at {pa:#x} is not zero")
        return pa
    return alloc


@given(ops=OPS)
@example(ops=[("page", 0), ("write", 211)])   # ran 3 bytes into a free frame
@settings(max_examples=60, deadline=None)
def test_free_frames_read_zero_through_every_free_path(ops):
    with mock.patch.object(
            PhysicalMemory, "alloc_page",
            _checked_alloc(PhysicalMemory.alloc_page)), \
        mock.patch.object(
            PhysicalMemory, "alloc_contiguous",
            _checked_alloc(PhysicalMemory.alloc_contiguous)):
        rig = _Rig()
        checkpoints = []
        for op in ops:
            if op[0] == "checkpoint":       # COW: live -> dormant copy
                checkpoints.append(capture(rig))
            elif op[0] == "restore":        # dormant -> live, continue
                rig = restore(capture(rig))
            else:
                try:
                    _step(rig, op)
                except OutOfMemoryError:
                    pass
            assert_free_frames_read_zero(rig.mem)
        assert_no_free_frame_in_page_table(rig.mem)
        assert_free_frames_read_zero(rig.mem)
        for snap in checkpoints:
            assert snap.world.mem.dormant
            assert_no_free_frame_in_page_table(snap.world.mem)
            revived = restore(snap)
            assert_free_frames_read_zero(revived.mem)


def test_freed_relay_segment_is_scrubbed_at_free():
    """The one deliberate semantic change: a freed segment's bytes are
    gone at free, not left readable until the frames are reused."""
    rig = _Rig()
    seg, slot = rig.kernel.create_relay_seg(rig.core, rig.a, 2 * PAGE_SIZE)
    rig.mem.write(seg.pa_base, b"\xaa" * seg.length)
    rig.a.seg_list.drop(slot)
    rig.kernel.free_relay_seg(rig.core, seg)
    assert rig.mem.read(seg.pa_base, seg.length) == bytes(seg.length)


def test_dormant_restore_materializes_only_nonzero_pages():
    """A restore rebuilds DRAM from the snapshot's non-zero pages on a
    fresh zeroed buffer; that is only correct because frames freed
    before the capture were already zero."""
    rig = _Rig()
    pa = rig.mem.alloc_contiguous(3 * PAGE_SIZE)
    rig.mem.write(pa, b"\x5a" * 3 * PAGE_SIZE)
    rig.mem.free_contiguous(pa, 3 * PAGE_SIZE)
    revived = restore(capture(rig))
    assert revived.mem.alloc_contiguous(3 * PAGE_SIZE) == pa
    assert revived.mem.read(pa, 3 * PAGE_SIZE) == bytes(3 * PAGE_SIZE)


@pytest.mark.parametrize("world", WORLDS)
def test_whole_machine_free_frames_are_zero(world):
    for label, memory in memories(world):
        assert_free_frames_read_zero(memory, label)
        assert_no_free_frame_in_page_table(memory, label)


def _full_scan(memory: PhysicalMemory) -> dict:
    """Every non-zero frame of *memory*, found by reading all of DRAM."""
    zero = bytes(PAGE_SIZE)
    pages = {}
    for frame in range(memory.size // PAGE_SIZE):
        page = memory.read(frame * PAGE_SIZE, PAGE_SIZE)
        if page != zero:
            pages[frame] = page
    return pages


@pytest.mark.parametrize("world", WORLDS)
def test_first_sync_matches_a_full_dram_scan(world):
    """The first page sync reads only allocated frames; the page view
    it builds is exactly the one a scan of every frame finds."""
    for label, memory in memories(world):
        assert memory._snap_dirty is None, f"{label}: already synced"
        expected = _full_scan(memory)
        assert memory.snap_page_table() == expected, label
