"""fsck: on-disk consistency, especially after crashes."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.faults as faults
from repro.services.fs.blockdev import BSIZE, RamDisk
from repro.services.fs.xv6fs import T_DIR, Xv6FS
from tests.services.test_log_crash import DirectDisk, device_crash


def make_fs(blocks=2048):
    return Xv6FS.mkfs(DirectDisk(RamDisk(blocks)))


class TestFsckOnHealthyImages:
    def test_fresh_fs_is_clean(self):
        assert make_fs().fsck() == []

    def test_after_normal_activity(self):
        fs = make_fs()
        fs.create("/dir", T_DIR)
        fs.create("/dir/a")
        fs.write("/dir/a", b"x" * (3 * BSIZE))
        fs.create("/b")
        fs.write("/b", b"y" * 100)
        fs.unlink("/dir/a")
        fs.rename("/b", "/dir/b")
        assert fs.fsck() == []

    def test_after_truncate(self):
        fs = make_fs()
        fs.create("/f")
        fs.write("/f", b"z" * (20 * BSIZE))   # uses the indirect block
        fs.truncate("/f")
        assert fs.fsck() == []


class TestFsckDetectsCorruption:
    def test_double_referenced_block(self):
        fs = make_fs()
        fs.create("/a")
        fs.write("/a", b"x" * BSIZE)
        fs.create("/b")
        fs.write("/b", b"y" * BSIZE)
        # Corrupt: point b's first block at a's.
        a = fs._iget(fs.lookup("/a"))
        b = fs._iget(fs.lookup("/b"))
        fs.log.begin_op()
        b.addrs[0] = a.addrs[0]
        fs._iupdate(b)
        fs.log.end_op()
        problems = fs.fsck()
        assert any("multiply referenced" in p for p in problems)

    def test_orphaned_block(self):
        fs = make_fs()
        fs.log.begin_op()
        fs._balloc()   # allocated, never attached
        fs.log.end_op()
        problems = fs.fsck()
        assert any("orphaned" in p for p in problems)

    def test_dirent_to_dead_inode(self):
        fs = make_fs()
        fs.create("/ghost")
        inum = fs.lookup("/ghost")
        # Corrupt: free the inode without unlinking it.
        fs.log.begin_op()
        ino = fs._iget(inum)
        ino.itype = 0
        fs._iupdate(ino)
        fs.log.end_op()
        problems = fs.fsck()
        assert any("dead inode" in p for p in problems)

    def test_block_in_use_but_free_in_bitmap(self):
        fs = make_fs()
        fs.create("/a")
        fs.write("/a", b"x" * BSIZE)
        a = fs._iget(fs.lookup("/a"))
        fs.log.begin_op()
        fs._bfree(a.addrs[0])
        fs.log.end_op()
        problems = fs.fsck()
        assert any("free in bitmap" in p for p in problems)


class TestCrashConsistency:
    @given(crash_after=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_fsck_clean_after_any_crash_plus_recovery(self, crash_after):
        """The log's whole job: crash anywhere, recover, fsck clean."""
        disk = RamDisk(2048)
        fs = Xv6FS.mkfs(DirectDisk(disk))
        fs.create("/d", T_DIR)
        fs.create("/d/file")
        fs.write("/d/file", b"A" * (2 * BSIZE))
        with faults.active(device_crash(crash_after)):
            try:
                fs.write("/d/file", b"B" * (6 * BSIZE))
                fs.create("/d/second")
                fs.rename("/d/file", "/d/renamed")
            except Exception:
                pass
        recovered = Xv6FS(DirectDisk(disk))   # mount runs log recovery
        assert recovered.fsck() == []
