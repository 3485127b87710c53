"""The page table's run writer maps exactly what a page-by-page loop maps.

:meth:`PageTable.map_pages` (behind :meth:`AddressSpace.mmap` and
:meth:`AddressSpace.mmap_many`) writes every run of pages under one L2
table with one PTE store and takes the run's frames with one allocator
call.  Each case here runs it on one of two twin memories and the
reference — one ``alloc_page`` plus one :meth:`PageTable.map` per page,
in VA order — on the other, then compares the returned VAs, every
mapping with its frame, the DRAM page view, ``mapped_pages``, the
page-table frames, the allocator's extents and the VA cursor.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.hw.paging import ENTRIES_PER_TABLE, AddressSpace, PagePerm

_L2_SPAN = ENTRIES_PER_TABLE * PAGE_SIZE        # VA covered by one L2
_L1_SPAN = ENTRIES_PER_TABLE * _L2_SPAN         # VA covered by one L1
_BASE = 0x40_0000_0000                          # the default VA cursor


def _round_up(nbytes: int) -> int:
    return (nbytes + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


def reference_mmap_many(aspace, nbytes, count, perm):
    """*count* cursor mappings, one frame and one ``map`` per page."""
    size = _round_up(nbytes)
    out = []
    for _ in range(count):
        va = aspace._va_cursor
        aspace._va_cursor += size + PAGE_SIZE
        for off in range(0, size, PAGE_SIZE):
            aspace.page_table.map(va + off, aspace.mem.alloc_page(), perm)
        out.append(va)
    return out


def reference_mmap(aspace, nbytes, perm=PagePerm.RW, va=None,
                   contiguous=False):
    size = _round_up(nbytes)
    if va is None:
        va = aspace._va_cursor
        aspace._va_cursor += size + PAGE_SIZE
    if contiguous:
        pa = aspace.mem.alloc_contiguous(size)
        for off in range(0, size, PAGE_SIZE):
            aspace.page_table.map(va + off, pa + off, perm)
    else:
        for off in range(0, size, PAGE_SIZE):
            aspace.page_table.map(va + off, aspace.mem.alloc_page(), perm)
    return va


def observe(aspace) -> dict:
    mem, table = aspace.mem, aspace.page_table
    return {
        "mappings": sorted(table.mappings()),
        "pages": mem.snap_page_table(),
        "mapped_pages": table.mapped_pages,
        "tables": list(table._owned_tables),
        "extents": [list(e) for e in mem.allocator._extents],
        "allocated": mem.allocator.allocated,
        "cursor": aspace._va_cursor,
    }


def twins(prepare):
    """Two identical address spaces, each on its own memory, after
    *prepare(aspace)* ran on both."""
    out = []
    for _ in range(2):
        aspace = AddressSpace(PhysicalMemory(8 * 1024 * 1024), "twin")
        prepare(aspace)
        out.append(aspace)
    return out


def assert_same(prepare, run, reference):
    fast, slow = twins(prepare)
    assert observe(fast) == observe(slow)
    assert run(fast) == reference(slow)
    assert observe(fast) == observe(slow)
    return fast


def fresh(aspace):
    pass


def cursor_at(va):
    """Start the cursor at *va*, after a one-page mapping at the old
    cursor and another just under *va* (so both tables exist)."""
    def prepare(aspace):
        aspace.mmap(PAGE_SIZE)
        aspace.mmap(PAGE_SIZE, va=va - 8 * PAGE_SIZE)
        aspace._va_cursor = va
    return prepare


def fresh_l2(aspace):
    """The cursor under an L1 table that exists and an L2 that does
    not."""
    aspace.mmap(PAGE_SIZE)
    aspace._va_cursor = _BASE + 3 * _L2_SPAN


def fragmented(aspace):
    """A free list whose first extents hold 1, 2 and 3 frames, with the
    cursor's L2 table already built (so the run writer serves it)."""
    aspace.mmap(PAGE_SIZE)
    mem = aspace.mem
    pages = [mem.alloc_page() for _ in range(12)]
    for index in (0, 2, 3, 5, 6, 7):
        mem.free_page(pages[index])
    assert [e[1] for e in mem.allocator._extents[:3]] == [1, 2, 3]


CASES = {
    "fresh": fresh,
    "fresh L2 table": fresh_l2,
    "across an L2 boundary": cursor_at(_BASE + _L2_SPAN - 5 * PAGE_SIZE),
    "across an L1 boundary": cursor_at(_BASE + _L1_SPAN - 3 * PAGE_SIZE),
    "fragmented free list": fragmented,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("perm", [PagePerm.RW, PagePerm.RX])
@pytest.mark.parametrize("count", [1, 8])
def test_mmap_many_matches_page_by_page(case, perm, count):
    nbytes = 16 * 1024
    assert_same(CASES[case],
                lambda a: a.mmap_many(nbytes, count, perm),
                lambda a: reference_mmap_many(a, nbytes, count, perm))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("contiguous", [False, True])
def test_mmap_matches_page_by_page(case, contiguous):
    assert_same(CASES[case],
                lambda a: a.mmap(5 * PAGE_SIZE - 7, contiguous=contiguous),
                lambda a: reference_mmap(a, 5 * PAGE_SIZE - 7,
                                         contiguous=contiguous))


@pytest.mark.parametrize("contiguous", [False, True])
def test_mmap_at_a_given_va_matches_page_by_page(contiguous):
    va = _BASE + 2 * _L2_SPAN - 2 * PAGE_SIZE
    assert_same(fragmented,
                lambda a: a.mmap(4 * PAGE_SIZE, PagePerm.RX, va=va,
                                 contiguous=contiguous),
                lambda a: reference_mmap(a, 4 * PAGE_SIZE, PagePerm.RX,
                                         va=va, contiguous=contiguous))


def test_guard_pages_stay_as_they_are():
    """A run's PTE span covers the guard pages between regions; a guard
    page mapped by hand keeps its PTE, and the rest stay unmapped."""
    def prepare(aspace):
        aspace.mmap(PAGE_SIZE, PagePerm.R, va=_BASE + 4 * PAGE_SIZE)
        aspace._va_cursor = _BASE + 8 * PAGE_SIZE
        aspace.mmap(PAGE_SIZE, PagePerm.R, va=_BASE + 15 * PAGE_SIZE)
    fast = assert_same(prepare, lambda a: a.mmap_many(3 * PAGE_SIZE, 3),
                       lambda a: reference_mmap_many(
                           a, 3 * PAGE_SIZE, 3, PagePerm.RW))
    table = fast.page_table
    assert table.lookup(_BASE + 15 * PAGE_SIZE)[1] == PagePerm.R
    for guard in (11, 19):
        assert table.lookup(_BASE + guard * PAGE_SIZE) is None


def test_zero_contexts_map_nothing():
    fast = assert_same(fresh, lambda a: a.mmap_many(16 * 1024, 0),
                       lambda a: reference_mmap_many(a, 16 * 1024, 0,
                                                     PagePerm.RW))
    assert fast.page_table.mapped_pages == 0


@given(layout=st.lists(st.integers(min_value=1, max_value=4),
                       min_size=0, max_size=6),
       offset=st.integers(min_value=0, max_value=40),
       nbytes=st.integers(min_value=1, max_value=6 * PAGE_SIZE),
       count=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_any_free_list_and_cursor_match(layout, offset, nbytes, count):
    """Free extents of random lengths at the head of the free list, the
    cursor a random distance below an L2 boundary."""
    def prepare(aspace):
        aspace.mmap(PAGE_SIZE)
        mem = aspace.mem
        held = []
        for length in layout:
            held.append(mem.alloc_contiguous(length * PAGE_SIZE))
            mem.alloc_page()                # keeps the extents apart
        for pa, length in zip(held, layout):
            mem.free_contiguous(pa, length * PAGE_SIZE)
        aspace._va_cursor = _BASE + _L2_SPAN - offset * PAGE_SIZE
    assert_same(prepare, lambda a: a.mmap_many(nbytes, count),
                lambda a: reference_mmap_many(a, nbytes, count,
                                              PagePerm.RW))
