"""Typed record access: ``PhysicalMemory.unpack_from``/``pack_into``.

A record accessor must behave like the byte accessor it replaces —
``st.unpack(mem.read(pa, st.size))`` and ``mem.write(pa, st.pack(...))``
— in the bytes it moves, in what it refuses (out of range, dormant
snapshot memory) and in the dirty frames it leaves for the snapshot
page sync.
"""

import copy
import struct

import pytest

from repro.hw.memory import PAGE_SIZE, PhysicalMemory

REC = struct.Struct("<Ii4I")      # the ring's CQE layout
SIZE = 1024 * 1024


def test_round_trip_matches_the_byte_accessors():
    mem = PhysicalMemory(SIZE)
    values = (7, -1, 0x40, 12, 0x80, 0xFFFFFFFF)
    mem.pack_into(REC, 0x2010, *values)
    assert mem.read(0x2010, REC.size) == REC.pack(*values)
    assert mem.unpack_from(REC, 0x2010) == values
    mem.write(0x3000, REC.pack(1, 2, 3, 4, 5, 6))
    assert mem.unpack_from(REC, 0x3000) == (1, 2, 3, 4, 5, 6)


@pytest.mark.parametrize("pa", [-1, SIZE - REC.size + 1, SIZE])
def test_out_of_range_records_raise_like_read_and_write(pa):
    mem = PhysicalMemory(SIZE)
    with pytest.raises(IndexError):
        mem.read(pa, REC.size)
    with pytest.raises(IndexError):
        mem.unpack_from(REC, pa)
    with pytest.raises(IndexError):
        mem.write(pa, bytes(REC.size))
    with pytest.raises(IndexError):
        mem.pack_into(REC, pa, 1, 2, 3, 4, 5, 6)


def test_last_record_in_memory_is_in_range():
    mem = PhysicalMemory(SIZE)
    mem.pack_into(REC, SIZE - REC.size, 1, 2, 3, 4, 5, 6)
    assert mem.unpack_from(REC, SIZE - REC.size) == (1, 2, 3, 4, 5, 6)


def test_dormant_memory_refuses_records_like_read_and_write():
    live = PhysicalMemory(SIZE)
    pa = live.alloc_page()
    live.pack_into(REC, pa, 1, 2, 3, 4, 5, 6)
    dormant = copy.deepcopy(live)
    assert dormant.dormant
    for access in (lambda: dormant.read(pa, REC.size),
                   lambda: dormant.unpack_from(REC, pa),
                   lambda: dormant.write(pa, bytes(REC.size)),
                   lambda: dormant.pack_into(REC, pa, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(RuntimeError, match="dormant"):
            access()
    # Reviving it restores the record packed before the checkpoint.
    assert copy.deepcopy(dormant).unpack_from(REC, pa) == (
        1, 2, 3, 4, 5, 6)


def test_pack_into_after_a_page_sync_is_captured_by_the_next_sync():
    mem = PhysicalMemory(SIZE)
    pa = mem.alloc_contiguous(2 * PAGE_SIZE)
    frame = pa // PAGE_SIZE
    mem.write(pa, b"seed")
    first = mem.snap_page_table()          # turns dirty tracking on
    assert set(first) == {frame}
    # A record straddling the page boundary dirties both frames.
    at = pa + PAGE_SIZE - 8
    mem.pack_into(REC, at, 9, -9, 99, 999, 9999, 99999)
    second = mem.snap_page_table()
    assert set(second) == {frame, frame + 1}
    assert second[frame][-8:] == REC.pack(9, -9, 99, 999, 9999, 99999)[:8]
    assert second[frame + 1][:REC.size - 8] == REC.pack(
        9, -9, 99, 999, 9999, 99999)[8:]
    # The checkpoint taken now holds the packed record.
    assert copy.deepcopy(copy.deepcopy(mem)).unpack_from(REC, at) == (
        9, -9, 99, 999, 9999, 99999)


def test_a_value_the_record_cannot_hold_still_dirties_its_frame():
    mem = PhysicalMemory(SIZE)
    pa = mem.alloc_page()
    mem.write(pa, b"\xff" * REC.size)
    mem.snap_page_table()
    with pytest.raises(struct.error):
        mem.pack_into(REC, pa, 1, 2, -3, 4, 5, 6)
    # Whatever reached memory reaches the next checkpoint too.
    assert mem.snap_page_table()[pa // PAGE_SIZE][:REC.size] == mem.read(
        pa, REC.size)
