"""Write-ahead log: commit protocol and crash recovery.

The central property (paper's xv6fs/FSCQ heritage): a crash at *any*
write during a transaction leaves the file system either entirely
before or entirely after the transaction, never in between.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.faults as faults
from repro.faults import FaultPlan
from repro.services.fs.blockdev import BSIZE, RamDisk
from repro.services.fs.log import LOG_MAX_BLOCKS, Log, LogFullError


class DirectDisk:
    """BlockClient-compatible adapter straight onto a RamDisk."""

    def __init__(self, disk):
        self.disk = disk
        self.nblocks = disk.nblocks
        self.block_size = disk.block_size

    def bread(self, blockno):
        return self.disk.read(blockno)

    def bwrite(self, blockno, data):
        self.disk.write(blockno, data)

    def flush(self):
        pass


def block(byte):
    return bytes([byte]) * BSIZE


def device_crash(writes):
    """A plan under which the ramdisk crashes after *writes* more
    writes: every later write is silently lost until the plan's
    ``faults.active`` scope ends, which stands in for the reboot."""
    return FaultPlan().arm("blockdev.lost_write", nth=writes + 1,
                           times=None)


def make_log(disk=None):
    disk = disk or RamDisk(128)
    return Log(DirectDisk(disk), logstart=1), disk


class TestProtocol:
    def test_commit_installs_blocks(self):
        log, disk = make_log()
        log.begin_op()
        log.log_write(70, block(7))
        log.log_write(71, block(8))
        log.end_op()
        assert disk.read(70) == block(7)
        assert disk.read(71) == block(8)
        assert log.committed_transactions == 1

    def test_nothing_written_before_end_op(self):
        log, disk = make_log()
        log.begin_op()
        log.log_write(70, block(7))
        assert disk.read(70) == block(0)

    def test_read_through_sees_pending(self):
        log, disk = make_log()
        log.begin_op()
        log.log_write(70, block(7))
        assert log.read_through(70) == block(7)
        log.end_op()

    def test_nested_ops_commit_once(self):
        log, disk = make_log()
        log.begin_op()
        log.begin_op()
        log.log_write(70, block(1))
        log.end_op()
        assert disk.read(70) == block(0)  # outer op still open
        log.end_op()
        assert disk.read(70) == block(1)
        assert log.committed_transactions == 1

    def test_absorption_same_block_twice(self):
        log, disk = make_log()
        log.begin_op()
        log.log_write(70, block(1))
        log.log_write(70, block(2))
        log.end_op()
        assert disk.read(70) == block(2)

    def test_log_full(self):
        log, disk = make_log(RamDisk(512))
        log.begin_op()
        with pytest.raises(LogFullError):
            for i in range(LOG_MAX_BLOCKS + 1):
                log.log_write(100 + i, block(1))

    def test_end_without_begin(self):
        log, _ = make_log()
        with pytest.raises(RuntimeError):
            log.end_op()

    def test_write_outside_txn(self):
        log, _ = make_log()
        with pytest.raises(RuntimeError):
            log.log_write(70, block(1))

    def test_header_cleared_after_commit(self):
        log, disk = make_log()
        log.begin_op()
        log.log_write(70, block(7))
        log.end_op()
        fresh = Log(DirectDisk(disk), logstart=1)
        assert fresh.recover() == 0


class TestCrashRecovery:
    def _run_with_crash(self, crash_after):
        """Crash the device after N writes mid-commit, then recover."""
        disk = RamDisk(128)
        log, _ = make_log(disk)
        # An initial committed state.
        log.begin_op()
        log.log_write(70, block(0xAA))
        log.log_write(71, block(0xBB))
        log.end_op()
        # The transaction that gets torn.
        with faults.active(device_crash(crash_after)):
            log.begin_op()
            log.log_write(70, block(0x11))
            log.log_write(71, block(0x22))
            log.log_write(72, block(0x33))
            try:
                log.end_op()
            except Exception:  # device died mid-commit; kernel panics
                pass
        # Reboot: contents survive, in-memory state does not.
        recovered = Log(DirectDisk(disk), logstart=1)
        recovered.recover()
        return disk

    def test_atomicity_at_every_crash_point(self):
        """The all-or-nothing property, exhaustively."""
        old = (block(0xAA), block(0xBB), block(0))
        new = (block(0x11), block(0x22), block(0x33))
        for crash_after in range(0, 12):
            disk = self._run_with_crash(crash_after)
            state = (disk.read(70), disk.read(71), disk.read(72))
            assert state in (old, new), (
                f"crash after {crash_after} writes left a torn state"
            )

    @given(crash_after=st.integers(0, 30))
    @settings(max_examples=31, deadline=None)
    def test_atomicity_property(self, crash_after):
        disk = self._run_with_crash(crash_after)
        state = (disk.read(70), disk.read(71), disk.read(72))
        assert state in (
            (block(0xAA), block(0xBB), block(0)),
            (block(0x11), block(0x22), block(0x33)),
        )

    def test_recovery_is_idempotent(self):
        disk = self._run_with_crash(5)
        before = [disk.read(i) for i in (70, 71, 72)]
        again = Log(DirectDisk(disk), logstart=1)
        again.recover()
        assert [disk.read(i) for i in (70, 71, 72)] == before
