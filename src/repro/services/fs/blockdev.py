"""The block-device server: a ramdisk behind an IPC boundary.

In the paper's microkernel file-system evaluation "a ramdisk device is
used as the block device server" (§5.3): the file-system server talks
to it through IPC for every block read/write, which is exactly the
chatter XPC's relay-seg handover eliminates.

:class:`RamDisk` is the device itself; :class:`BlockServer` exposes it
over a :class:`~repro.ipc.transport.Transport`; :class:`BlockClient`
is what the FS server links against.

The ramdisk's storage is device RAM on the machine's page store: a
:class:`~repro.hw.memory.PhysicalMemory` of its own, so an empty disk
costs no host memory, snapshots share its clean pages copy-on-write and
a dormant snapshot holds only the blocks that were written.
"""

from __future__ import annotations

from typing import Tuple

import repro.probe as probe
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.ipc.transport import Payload, Transport

BSIZE = 4096  # file-system block size (FSCQ's xv6fs uses 4 KB blocks)

OP_READ = "bread"
OP_WRITE = "bwrite"
OP_SIZE = "bsize"
OP_FLUSH = "bflush"


class BlockDeviceError(Exception):
    """Out-of-range block, bad size, or injected device failure."""


class RamDisk:
    """A volatile block device; its faults are the ``blockdev.*`` points.

    Block *n* lives at byte ``n * block_size`` of the device's RAM, a
    :class:`~repro.hw.memory.PhysicalMemory` sized to the disk (rounded
    up to pages) with every frame allocated at construction: written
    blocks must never sit in frames the page store treats as free,
    which it assumes read zero."""

    def __init__(self, nblocks: int, block_size: int = BSIZE) -> None:
        if nblocks <= 0 or block_size <= 0:
            raise ValueError("ramdisk needs positive geometry")
        self.nblocks = nblocks
        self.block_size = block_size
        size = -(-nblocks * block_size // PAGE_SIZE) * PAGE_SIZE
        self.ram = PhysicalMemory(size, reserved_bytes=0)
        self.ram.alloc_contiguous(size)
        self.reads = 0
        self.writes = 0

    def read(self, blockno: int) -> bytes:
        self._check(blockno)
        if probe.INJECT and probe.inject("blockdev.io_error") is not None:
            raise BlockDeviceError(
                f"injected I/O error reading block {blockno}")
        self.reads += 1
        return self.ram.read(blockno * self.block_size, self.block_size)

    def write(self, blockno: int, data: bytes) -> None:
        self._check(blockno)
        if len(data) != self.block_size:
            raise BlockDeviceError(
                f"write of {len(data)} bytes to a {self.block_size}-byte "
                "block device"
            )
        if probe.INJECT:
            if probe.inject("blockdev.io_error") is not None:
                raise BlockDeviceError(
                    f"injected I/O error writing block {blockno}")
            if probe.inject("blockdev.lost_write") is not None:
                return  # injected lost write (crash-model, §5.3)
        self.writes += 1
        self.ram.write(blockno * self.block_size, data)

    def _check(self, blockno: int) -> None:
        if not 0 <= blockno < self.nblocks:
            raise BlockDeviceError(f"block {blockno} out of range")


class BlockServer:
    """IPC-facing wrapper: registers the ramdisk on a transport."""

    def __init__(self, transport: Transport, disk: RamDisk,
                 server_process, server_thread,
                 name: str = "blockdev") -> None:
        self.transport = transport
        self.disk = disk
        self.params = transport.kernel.params
        self.sid = transport.register(
            name, self._handle, server_process, server_thread)

    def _handle(self, meta: tuple, payload: Payload):
        op, blockno = meta[0], meta[1] if len(meta) > 1 else 0
        core = self.transport.current_core
        try:
            if op == OP_READ:
                core.tick(self.params.ramdisk_per_block)
                return (0,), self.disk.read(blockno)
            if op == OP_WRITE:
                core.tick(self.params.ramdisk_per_block)
                self.disk.write(blockno,
                                payload.read(self.disk.block_size))
                return (0,), None
            if op == OP_SIZE:
                return (self.disk.nblocks, self.disk.block_size), None
            if op == OP_FLUSH:
                return (0,), None
            raise BlockDeviceError(f"unknown block op {op!r}")
        except BlockDeviceError as exc:
            # Device failures cross the IPC boundary as an error reply,
            # never as a raw exception through the migrated call.
            return (-1, str(exc)), None


class BlockClient:
    """What the FS server uses: block ops become transport calls."""

    def __init__(self, transport: Transport, sid: int) -> None:
        self.transport = transport
        self.sid = sid
        nblocks, block_size = self.transport.call(sid, (OP_SIZE,))[0]
        self.nblocks = nblocks
        self.block_size = block_size

    def bread(self, blockno: int) -> bytes:
        meta, data = self.transport.call(
            self.sid, (OP_READ, blockno), b"",
            reply_capacity=self.block_size)
        if meta[0] != 0:
            raise BlockDeviceError(f"bread({blockno}) failed: {meta}")
        return data

    def bread_into(self, blockno: int, window_slice) -> bytes:
        """Read a block straight into a relay-window slice (handover).

        On an XPC transport the device writes the block into the
        caller's current window at ``window_slice=(offset, length)`` —
        zero copies.  On a baseline transport this degenerates to a
        normal :meth:`bread` and the caller moves the bytes itself.
        """
        meta, data = self.transport.call(
            self.sid, (OP_READ, blockno), b"",
            reply_capacity=self.block_size, window_slice=window_slice)
        if meta[0] != 0:
            raise BlockDeviceError(f"bread({blockno}) failed: {meta}")
        return data

    def bwrite(self, blockno: int, data: bytes) -> None:
        meta, _ = self.transport.call(
            self.sid, (OP_WRITE, blockno), data)
        if meta[0] != 0:
            raise BlockDeviceError(f"bwrite({blockno}) failed: {meta}")

    def flush(self) -> None:
        self.transport.call(self.sid, (OP_FLUSH,))
