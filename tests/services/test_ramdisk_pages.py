"""The ramdisk on the page store: it holds only the blocks written.

:class:`~repro.services.fs.blockdev.RamDisk` keeps its blocks in a
:class:`~repro.hw.memory.PhysicalMemory` of its own, so a fresh disk
has no pages, each distinct block written adds one, checkpoints share
the disk's clean pages copy-on-write, and a restored world reads back
every block that was written.
"""

import pickle

import repro.faults as faults
from repro.faults import FaultPlan
from repro.services.fs.blockdev import BSIZE, RamDisk
from repro.snap.core import capture, restore
from repro.snap.record import Recorder
from repro.snap.scenarios import fig7_world
from tests.services.test_log_crash import device_crash


def _block(blockno: int) -> bytes:
    return bytes([blockno % 251 + 1]) * BSIZE


def test_fresh_disk_has_no_pages():
    assert RamDisk(2048).ram.snap_page_table() == {}


def test_each_distinct_block_written_is_one_page():
    disk = RamDisk(2048)
    blocks = [0, 5, 6, 1000, 2047]
    for blockno in blocks + blocks[:2]:         # rewrites add nothing
        disk.write(blockno, _block(blockno))
    assert sorted(disk.ram.snap_page_table()) == blocks
    for blockno in blocks:
        assert disk.read(blockno) == _block(blockno)


def test_odd_geometry_rounds_up_to_pages():
    disk = RamDisk(3, block_size=1000)
    disk.write(2, b"\x07" * 1000)
    assert disk.ram.size == 4096
    assert disk.read(2) == b"\x07" * 1000
    assert disk.read(1) == bytes(1000)


def test_crash_lost_write_and_revive():
    disk = RamDisk(8)
    crash = device_crash(1)
    with faults.active(crash):
        disk.write(0, _block(0))                # survives
        disk.write(1, _block(1))                # crash: lost
        assert crash.trace
        disk.write(2, _block(2))                # lost
    assert disk.writes == 1
    plan = FaultPlan(seed=1).arm("blockdev.lost_write", nth=2)
    with faults.active(plan):
        disk.write(3, _block(3))                # survives
        disk.write(4, _block(4))                # injected lost write
        disk.write(5, _block(5))                # survives
    assert plan.trace
    assert [disk.read(b) for b in range(6)] == [
        _block(0), bytes(BSIZE), bytes(BSIZE),
        _block(3), bytes(BSIZE), _block(5)]
    assert sorted(disk.ram.snap_page_table()) == [0, 3, 5]


def test_adjacent_fig7_checkpoints_share_clean_disk_pages():
    world, ops = fig7_world()
    recorder = Recorder(world, every_ops=1)
    recorder.run(ops)
    # The last op is a net ping-pong: it writes no block, so the last
    # two checkpoints hold the same disk pages, as the same objects.
    prev = recorder.checkpoints[-2].world.disk.ram.snap_page_table()
    last = recorder.checkpoints[-1].world.disk.ram.snap_page_table()
    assert last and last.keys() == prev.keys()
    assert all(page is prev[blockno] for blockno, page in last.items())


def test_restored_fig7_world_reads_back_every_written_block():
    world, ops = fig7_world()
    world.run(ops)
    disk = world.disk
    written = {blockno: disk.read(blockno)
               for blockno in range(disk.nblocks)
               if disk.read(blockno) != bytes(BSIZE)}
    assert written
    snapshot = pickle.loads(pickle.dumps(capture(world)))
    assert sorted(snapshot.world.disk.ram.snap_page_table()) == \
        sorted(written)
    revived = restore(snapshot).disk
    for blockno in range(disk.nblocks):
        assert revived.read(blockno) == written.get(blockno, bytes(BSIZE))
